#include "iflint_lib.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace iflint {

const std::vector<std::string> kRules = {
    "unordered-iter", "nondet-source", "ptr-hash",
    "raw-shift",      "raw-assert",    "std-function",
    "ndebug-layout",
};

// ===================================================================
// Pass 1: lexing
// ===================================================================

FileLex
lexFile(const std::string& text)
{
    FileLex out;
    out.code.reserve(text.size());
    enum State { Code, LineComment, BlockComment, Str, Chr, RawStr };
    State st = Code;
    int line = 1;
    int commentBegin = 0;
    std::string commentText;
    std::string rawDelim;          // raw-string closing delimiter ")foo"
    const std::size_t n = text.size();

    auto flushComment = [&](int endLine) {
        out.comments.push_back({commentBegin, endLine, commentText});
        commentText.clear();
    };

    for (std::size_t i = 0; i < n; ++i) {
        const char c = text[i];
        const char nx = i + 1 < n ? text[i + 1] : '\0';
        switch (st) {
          case Code:
            if (c == '/' && nx == '/') {
                st = LineComment;
                commentBegin = line;
                out.code += "  ";
                ++i;
            } else if (c == '/' && nx == '*') {
                st = BlockComment;
                commentBegin = line;
                out.code += "  ";
                ++i;
            } else if (c == '"') {
                // Raw string literal?  R"delim( ... )delim"
                bool raw = false;
                if (i > 0 && text[i - 1] == 'R') {
                    std::size_t j = i + 1;
                    std::string d;
                    while (j < n && text[j] != '(' && d.size() < 16)
                        d += text[j++];
                    if (j < n && text[j] == '(') {
                        raw = true;
                        rawDelim = ")" + d + "\"";
                        st = RawStr;
                        for (std::size_t k = i; k <= j; ++k)
                            out.code += text[k] == '\n' ? '\n' : ' ';
                        i = j;
                    }
                }
                if (!raw) {
                    st = Str;
                    out.code += ' ';
                }
            } else if (c == '\'') {
                // Distinguish char literals from digit separators
                // (1'000'000): a separator follows an alnum.
                if (i > 0 && (std::isalnum(static_cast<unsigned char>(
                                  text[i - 1])) ||
                              text[i - 1] == '_')) {
                    out.code += ' ';
                } else {
                    st = Chr;
                    out.code += ' ';
                }
            } else {
                out.code += c;
            }
            break;
          case LineComment:
            if (c == '\n') {
                flushComment(line);
                st = Code;
                out.code += '\n';
            } else {
                commentText += c;
            }
            break;
          case BlockComment:
            if (c == '*' && nx == '/') {
                flushComment(line);
                st = Code;
                out.code += "  ";
                ++i;
            } else {
                commentText += c;
                out.code += c == '\n' ? '\n' : ' ';
            }
            break;
          case Str:
            if (c == '\\' && nx) {
                out.code += nx == '\n' ? " \n" : "  ";
                if (nx == '\n')
                    ++line;
                ++i;
            } else if (c == '"') {
                st = Code;
                out.code += ' ';
            } else {
                out.code += c == '\n' ? '\n' : ' ';
            }
            break;
          case Chr:
            if (c == '\\' && nx) {
                out.code += "  ";
                ++i;
            } else if (c == '\'') {
                st = Code;
                out.code += ' ';
            } else {
                out.code += c == '\n' ? '\n' : ' ';
            }
            break;
          case RawStr:
            if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
                for (std::size_t k = 0; k < rawDelim.size(); ++k)
                    out.code += ' ';
                i += rawDelim.size() - 1;
                st = Code;
            } else {
                out.code += c == '\n' ? '\n' : ' ';
            }
            break;
        }
        if (c == '\n' && st != Str)
            ++line;
        else if (c == '\n' && st == Str)
            ++line;
    }
    if (st == LineComment || st == BlockComment)
        flushComment(line);
    return out;
}

std::vector<Token>
tokenize(const std::string& code)
{
    std::vector<Token> toks;
    int line = 1;
    const std::size_t n = code.size();
    std::size_t i = 0;
    auto isIdent0 = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
    };
    auto isIdentC = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    while (i < n) {
        const char c = code[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (isIdent0(c)) {
            std::size_t j = i;
            while (j < n && isIdentC(code[j]))
                ++j;
            toks.push_back({Token::Ident, code.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            while (j < n && (isIdentC(code[j]) || code[j] == '.'))
                ++j;
            toks.push_back({Token::Num, code.substr(i, j - i), line});
            i = j;
            continue;
        }
        // Multi-char punctuators we care about, longest match first.
        static const char* kMulti[] = {"<<=", ">>=", "::", "->", "<<",
                                       ">>",  "==",  "!=", "<=", ">=",
                                       "&&",  "||",  "+=", "-=", "|=",
                                       "&=",  "^=",  "++", "--"};
        bool matched = false;
        for (const char* m : kMulti) {
            const std::size_t len = std::strlen(m);
            if (code.compare(i, len, m) == 0) {
                toks.push_back({Token::Punct, m, line});
                i += len;
                matched = true;
                break;
            }
        }
        if (!matched) {
            toks.push_back({Token::Punct, std::string(1, c), line});
            ++i;
        }
    }
    return toks;
}

// ===================================================================
// Pass 1: rules
// ===================================================================

namespace {

const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/** `.begin()` starts a traversal; `.end()` alone is only a lookup
 *  sentinel (`it == m.end()`), so it is deliberately not listed. */
const std::set<std::string> kIterMethods = {"begin", "cbegin", "rbegin"};

/** Identifiers that read like compile-time constants: kCamelCase or
 *  ALL_CAPS. A shift by one of these is width-auditable at the
 *  declaration, unlike a shift by a runtime node/way/context value. */
bool
isConstStyle(const std::string& s)
{
    if (s.size() >= 2 && s[0] == 'k' &&
        std::isupper(static_cast<unsigned char>(s[1])))
        return true;
    bool sawAlpha = false;
    for (char c : s) {
        if (std::islower(static_cast<unsigned char>(c)))
            return false;
        if (std::isalpha(static_cast<unsigned char>(c)))
            sawAlpha = true;
    }
    return sawAlpha;
}

bool
isHotPath(const std::string& path)
{
    for (const char* d : {"/sim/", "/coh/", "/mem/", "/core/"}) {
        if (path.find(d) != std::string::npos)
            return true;
        // Also match when the path *starts* with the component.
        if (path.compare(0, std::strlen(d) - 1, d + 1) == 0)
            return true;
    }
    return false;
}

/** Skip a balanced template-argument list; toks[i] must be "<".
 *  Returns the index one past the closing ">". */
std::size_t
skipTemplateArgs(const std::vector<Token>& toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        const std::string& t = toks[i].text;
        if (t == "<")
            ++depth;
        else if (t == ">")
            --depth;
        else if (t == ">>")
            depth -= 2;
        else if (t == "(" || t == ";")
            break;  // malformed / not a template after all
        if (depth <= 0)
            return i + 1;
    }
    return i;
}

std::string
numNorm(const std::string& s)
{
    std::string out;
    for (char c : s)
        if (c != 'u' && c != 'U' && c != 'l' && c != 'L' && c != '\'')
            out += c;
    return out;
}

const std::set<std::string> kCallContextKeywords = {
    "return", "case", "throw", "else", "do", "while", "if", "for",
    "co_return", "co_yield"};

} // namespace

void
collectUnorderedNames(const std::vector<Token>& toks,
                      std::set<std::string>& names,
                      std::set<std::string>& aliases)
{
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Token::Ident)
            continue;
        const bool direct = kUnorderedTypes.count(toks[i].text) != 0;
        const bool viaAlias = aliases.count(toks[i].text) != 0;
        if (!direct && !viaAlias)
            continue;
        // `using A = [std::]unordered_map<...>` records the alias A.
        if (direct) {
            std::size_t b = i;
            if (b >= 2 && toks[b - 1].text == "::" &&
                toks[b - 2].text == "std")
                b -= 2;
            if (b >= 3 && toks[b - 1].text == "=" &&
                toks[b - 2].kind == Token::Ident &&
                toks[b - 3].text == "using") {
                aliases.insert(toks[b - 2].text);
            }
        }
        // Declaration:  type<...> [*&const]* name
        std::size_t j = i + 1;
        if (j < toks.size() && toks[j].text == "<")
            j = skipTemplateArgs(toks, j);
        while (j < toks.size() &&
               (toks[j].text == "*" || toks[j].text == "&" ||
                toks[j].text == "&&" || toks[j].text == "const"))
            ++j;
        if (j < toks.size() && toks[j].kind == Token::Ident &&
            toks[j].text != "const")
            names.insert(toks[j].text);
    }
}

namespace {

void
runRules(const std::string& path, const std::vector<Token>& toks,
         const std::set<std::string>& unorderedNames,
         const std::set<std::string>& unorderedAliases,
         std::vector<Finding>& out)
{
    const bool hot = isHotPath(path);
    auto text = [&](std::size_t i) -> const std::string& {
        static const std::string empty;
        return i < toks.size() ? toks[i].text : empty;
    };
    auto isUnordered = [&](const std::string& s) {
        return kUnorderedTypes.count(s) || unorderedNames.count(s) ||
               unorderedAliases.count(s);
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind == Token::Punct) {
            // ---- raw-shift: 1 << <runtime expr> ------------------
            if (t.text == "<<" && i >= 1 && toks[i - 1].kind == Token::Num &&
                numNorm(toks[i - 1].text) == "1" &&
                !(i >= 2 && toks[i - 2].text == "<<")) {
                const Token* rhs = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
                const bool ok =
                    rhs && (rhs->kind == Token::Num ||
                            (rhs->kind == Token::Ident &&
                             (isConstStyle(rhs->text) ||
                              rhs->text == "sizeof")));
                if (!ok)
                    out.push_back({path, t.line, "raw-shift",
                                   "literal 1 shifted by runtime "
                                   "expression '" +
                                       (rhs ? rhs->text : "") +
                                       "'; use SharerSet or "
                                       "bitOf<T>() (width-checked)"});
            }
            continue;
        }
        if (t.kind != Token::Ident)
            continue;
        const std::string& prev = i >= 1 ? toks[i - 1].text : "";
        const std::string& prev2 = i >= 2 ? toks[i - 2].text : "";
        const std::string& next = text(i + 1);

        // ---- raw-assert --------------------------------------------
        if (t.text == "assert" && next == "(") {
            out.push_back({path, t.line, "raw-assert",
                           "raw assert(); use IF_DBG_ASSERT for "
                           "debug-only checks or IF_FATAL/IF_PANIC for "
                           "always-on bounds"});
            continue;
        }

        // ---- std-function (hot directories only) -------------------
        if (hot && t.text == "function" && prev == "::" && prev2 == "std") {
            out.push_back({path, t.line, "std-function",
                           "std::function in a hot-path directory; use "
                           "a typed record (FillWaiter, RetryRecord), an "
                           "inline event closure, or FunctionRef "
                           "(borrowing)"});
            continue;
        }

        // ---- nondet-source -----------------------------------------
        static const std::set<std::string> kNondetAlways = {
            "random_device", "steady_clock", "system_clock",
            "high_resolution_clock"};
        static const std::set<std::string> kNondetCalls = {
            "rand",    "srand",   "rand_r",       "drand48", "lrand48",
            "mrand48", "random",  "gettimeofday", "time",    "clock",
            "clock_gettime"};
        if (kNondetAlways.count(t.text)) {
            out.push_back({path, t.line, "nondet-source",
                           "'" + t.text +
                               "' is a nondeterminism source; results "
                               "must derive from the run seed (sim/rng.hh)"});
            continue;
        }
        if (kNondetCalls.count(t.text) && next == "(") {
            bool flag;
            if (prev == "::")
                flag = prev2 == "std";  // std::time(...); Foo::time() is
                                        // a member definition, skip it
            else if (prev == "." || prev == "->")
                flag = false;           // member call on some object
            else if (i >= 1 && toks[i - 1].kind == Token::Ident)
                // `Cycle time(...)` declaration unless the preceding
                // identifier is a statement keyword (`return rand()`).
                flag = kCallContextKeywords.count(prev) != 0;
            else
                flag = true;
            if (flag) {
                out.push_back({path, t.line, "nondet-source",
                               "call to '" + t.text +
                                   "()'; results must derive from the "
                                   "run seed (sim/rng.hh)"});
                continue;
            }
        }

        // ---- ptr-hash: std::hash/std::less over a pointer type -----
        if ((t.text == "hash" || t.text == "less") && prev == "::" &&
            prev2 == "std" && next == "<") {
            int depth = 0;
            bool sawPtr = false;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                const std::string& s = toks[j].text;
                if (s == "<")
                    ++depth;
                else if (s == ">")
                    --depth;
                else if (s == ">>")
                    depth -= 2;
                else if (s == "*" && depth >= 1)
                    sawPtr = true;
                else if (s == "(" || s == ";")
                    break;
                if (depth <= 0)
                    break;
            }
            if (sawPtr) {
                out.push_back({path, t.line, "ptr-hash",
                               "std::" + t.text +
                                   " over a pointer type: pointer values "
                                   "vary run to run, so any ordering or "
                                   "hash layout derived from them is "
                                   "nondeterministic"});
                continue;
            }
        }

        // ---- unordered-iter ----------------------------------------
        if (t.text == "for" && next == "(") {
            // Find a ':' at depth 1 (range-for), then check the range
            // expression for unordered names.
            int depth = 0;
            std::size_t colon = 0, close = 0;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                const std::string& s = toks[j].text;
                if (s == "(")
                    ++depth;
                else if (s == ")") {
                    --depth;
                    if (depth == 0) {
                        close = j;
                        break;
                    }
                } else if (s == ":" && depth == 1 && !colon)
                    colon = j;
                else if (s == ";" && depth == 1)
                    break;  // classic for loop
            }
            if (colon && close) {
                for (std::size_t j = colon + 1; j < close; ++j) {
                    if (toks[j].kind == Token::Ident &&
                        isUnordered(toks[j].text)) {
                        out.push_back(
                            {path, t.line, "unordered-iter",
                             "range-for over unordered container '" +
                                 toks[j].text +
                                 "': iteration order depends on hash "
                                 "layout; use FlatAddrMap or a sorted "
                                 "snapshot"});
                        break;
                    }
                }
            }
            continue;
        }
        if (unorderedNames.count(t.text) &&
            (next == "." || next == "->") && i + 2 < toks.size() &&
            toks[i + 2].kind == Token::Ident &&
            kIterMethods.count(toks[i + 2].text) &&
            text(i + 3) == "(") {
            out.push_back({path, t.line, "unordered-iter",
                           "iterator traversal of unordered container '" +
                               t.text +
                               "': iteration order depends on hash "
                               "layout; use FlatAddrMap or a sorted "
                               "snapshot"});
            continue;
        }
    }
}

// ---------------------------------------------------------------
// ndebug-layout: data members inside NDEBUG conditionals
// ---------------------------------------------------------------

/** Does a class-scope declaration (its tokens up to the ';' or the
 *  brace that opens a body or initializer) declare a non-static data
 *  member? A parameter list before any '=' makes it a function. */
bool
declaresDataMember(const std::vector<const Token*>& decl)
{
    static const std::set<std::string> kNotData = {
        "using", "typedef", "friend", "static_assert", "enum",  "class",
        "struct", "union",  "template", "static",     "operator"};
    static const std::set<std::string> kTypeOps = {"alignas", "decltype",
                                                   "sizeof", "alignof"};
    int angle = 0;
    for (std::size_t k = 0; k < decl.size(); ++k) {
        const std::string& t = decl[k]->text;
        if (t == "=")
            break;   // the initializer is an expression
        if (kNotData.count(t))
            return false;
        angle += t == "<" ? 1 : t == ">" ? -1 : t == ">>" ? -2 : 0;
        if (t == "(" && angle <= 0 &&
            !(k > 0 && kTypeOps.count(decl[k - 1]->text)))
            // `(*fn)(...)` declares a function pointer, anything else
            // opens a member function's parameter list.
            return k + 1 < decl.size() && (decl[k + 1]->text == "*" ||
                                           decl[k + 1]->text == "&");
    }
    return !decl.empty();
}

/**
 * Flag data members declared in a class body inside an `#ifdef NDEBUG`,
 * `#ifndef NDEBUG` or `#if ... NDEBUG ...` region (either branch): the
 * class layout then differs between Debug and Release translation
 * units, and linking the two corrupts memory. Member functions and code
 * inside function bodies change no layout.
 */
void
runNdebugLayoutRule(const std::string& path, const std::vector<Token>& toks,
                    std::vector<Finding>& out)
{
    std::vector<bool> conds;   // #if stack: does it mention NDEBUG?
    // Open braces: 'n' namespace, 'c' class body, 'i' a data member's
    // brace initializer, 'o' any other (function body, enum, ...).
    std::vector<char> scopes;
    std::vector<const Token*> decl;   // pending class-scope declaration
    bool declInRegion = false;
    bool classHead = false;
    bool namespaceHead = false;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.text == "#" && (i == 0 || toks[i - 1].line != t.line)) {
            // A directive runs to the end of its line, plus any
            // backslash continuations.
            std::size_t j = i + 1;
            bool ndebug = false;
            for (; j < toks.size() &&
                   (toks[j].line == toks[j - 1].line ||
                    toks[j - 1].text == "\\");
                 ++j)
                ndebug |= toks[j].text == "NDEBUG";
            const std::string& verb = i + 1 < j ? toks[i + 1].text : t.text;
            if (verb == "if" || verb == "ifdef" || verb == "ifndef")
                conds.push_back(ndebug);
            else if (verb == "elif" && !conds.empty())
                conds.back() = conds.back() || ndebug;
            else if (verb == "endif" && !conds.empty())
                conds.pop_back();
            i = j - 1;
            continue;
        }
        const char top = scopes.empty() ? 'n' : scopes.back();
        if (t.text == "{") {
            char kind = 'o';   // everything inside a function body
            if (top == 'n' || top == 'c') {
                if (classHead)
                    kind = 'c';
                else if (namespaceHead)
                    kind = 'n';
                else if (top == 'c' && declaresDataMember(decl))
                    kind = 'i';
            }
            if (top == 'c' && kind != 'i')
                decl.clear();   // a nested type or a member function body
            scopes.push_back(kind);
            classHead = namespaceHead = false;
            continue;
        }
        if (t.text == "}" && !scopes.empty()) {
            scopes.pop_back();
            continue;
        }
        if (t.text == ";") {
            if (top == 'c' && declInRegion && declaresDataMember(decl))
                out.push_back({path, decl.front()->line, "ndebug-layout",
                               "data member declared under an NDEBUG "
                               "conditional: Debug and Release objects of "
                               "this class differ in layout"});
            classHead = namespaceHead = false;
        }
        classHead |= (t.text == "class" || t.text == "struct" ||
                      t.text == "union") &&
                     !(i > 0 && (toks[i - 1].text == "enum" ||
                                 toks[i - 1].text == "<" ||
                                 toks[i - 1].text == ","));
        namespaceHead |= t.text == "namespace" || t.text == "extern";
        if (top != 'c')
            continue;
        const bool access = t.text == ":" && decl.size() == 1 &&
                            (decl[0]->text == "public" ||
                             decl[0]->text == "private" ||
                             decl[0]->text == "protected");
        if (t.text == ";" || access) {
            decl.clear();
            continue;
        }
        if (decl.empty())
            declInRegion = false;
        decl.push_back(&t);
        declInRegion |=
            std::find(conds.begin(), conds.end(), true) != conds.end();
    }
}

// ---------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------

struct LineAllow {
    int line = 0;  // directive line; covers this line and the next
    std::string rule;
    bool used = false;
};

struct BlockAllow {
    int begin = 0, end = 0;
    std::string rule;
    bool used = false;
};

struct SuppressionSet {
    std::vector<LineAllow> lines;
    std::vector<BlockAllow> blocks;
    std::vector<Finding> errors;
};

SuppressionSet
parseSuppressions(const std::string& path, const FileLex& lex)
{
    SuppressionSet out;
    struct OpenBlock {
        int line;
        std::string rule;
    };
    std::vector<OpenBlock> open;

    for (const auto& com : lex.comments) {
        std::size_t pos = 0;
        while ((pos = com.text.find("iflint:", pos)) != std::string::npos) {
            const int dline =
                com.lineBegin +
                static_cast<int>(std::count(com.text.begin(),
                                            com.text.begin() +
                                                static_cast<long>(pos),
                                            '\n'));
            std::size_t p = pos + 7;
            const std::size_t paren = com.text.find('(', p);
            if (paren == std::string::npos) {
                out.errors.push_back({path, dline, "bad-suppression",
                                      "malformed iflint directive "
                                      "(missing '(')"});
                pos = p;
                continue;
            }
            std::string verb = com.text.substr(p, paren - p);
            while (!verb.empty() && std::isspace(static_cast<unsigned char>(
                                        verb.back())))
                verb.pop_back();
            const std::size_t closep = com.text.find(')', paren);
            if (closep == std::string::npos) {
                out.errors.push_back({path, dline, "bad-suppression",
                                      "malformed iflint directive "
                                      "(missing ')')"});
                pos = p;
                continue;
            }
            const std::string rule =
                com.text.substr(paren + 1, closep - paren - 1);
            std::size_t jbeg = closep + 1;
            std::size_t jend = com.text.find('\n', jbeg);
            if (jend == std::string::npos)
                jend = com.text.size();
            std::string just = com.text.substr(jbeg, jend - jbeg);
            auto trim = [](std::string& s) {
                while (!s.empty() && std::isspace(static_cast<unsigned char>(
                                         s.front())))
                    s.erase(s.begin());
                while (!s.empty() && std::isspace(static_cast<unsigned char>(
                                         s.back())))
                    s.pop_back();
            };
            trim(just);
            pos = closep;

            if (std::find(kRules.begin(), kRules.end(), rule) ==
                kRules.end()) {
                out.errors.push_back({path, dline, "bad-suppression",
                                      "unknown rule '" + rule + "'"});
                continue;
            }
            if (verb == "allow" || verb == "begin-allow") {
                if (just.empty()) {
                    out.errors.push_back(
                        {path, dline, "bad-suppression",
                         "iflint:" + verb + "(" + rule +
                             ") needs a written justification"});
                    continue;
                }
            }
            if (verb == "allow") {
                out.lines.push_back({dline, rule, false});
            } else if (verb == "begin-allow") {
                open.push_back({dline, rule});
            } else if (verb == "end-allow") {
                bool found = false;
                for (std::size_t k = open.size(); k-- > 0;) {
                    if (open[k].rule == rule) {
                        out.blocks.push_back(
                            {open[k].line, dline, rule, false});
                        open.erase(open.begin() + static_cast<long>(k));
                        found = true;
                        break;
                    }
                }
                if (!found)
                    out.errors.push_back(
                        {path, dline, "bad-suppression",
                         "iflint:end-allow(" + rule +
                             ") without a matching begin-allow"});
            } else {
                out.errors.push_back({path, dline, "bad-suppression",
                                      "unknown iflint directive '" +
                                          verb + "'"});
            }
        }
    }
    for (const auto& ob : open)
        out.errors.push_back({path, ob.line, "bad-suppression",
                              "iflint:begin-allow(" + ob.rule +
                                  ") never closed by end-allow"});
    return out;
}

} // namespace

Pass1FileResult
analyzeFile(const std::string& path, const std::string& text,
            const std::set<std::string>& unorderedNames,
            const std::set<std::string>& unorderedAliases)
{
    Pass1FileResult out;
    const FileLex lex = lexFile(text);
    const std::vector<Token> toks = tokenize(lex.code);

    std::vector<Finding> raw;
    runRules(path, toks, unorderedNames, unorderedAliases, raw);
    runNdebugLayoutRule(path, toks, raw);
    SuppressionSet supp = parseSuppressions(path, lex);

    for (const Finding& f : raw) {
        bool suppressed = false;
        for (auto& la : supp.lines) {
            if (la.rule == f.rule &&
                (f.line == la.line || f.line == la.line + 1)) {
                la.used = true;
                suppressed = true;
            }
        }
        for (auto& ba : supp.blocks) {
            if (ba.rule == f.rule && f.line >= ba.begin && f.line <= ba.end) {
                ba.used = true;
                suppressed = true;
            }
        }
        if (suppressed)
            ++out.suppressionsHonored;
        else
            out.findings.push_back(f);
    }
    for (const auto& la : supp.lines)
        if (!la.used)
            out.findings.push_back({path, la.line, "bad-suppression",
                                    "iflint:allow(" + la.rule +
                                        ") suppresses nothing; delete it"});
    for (const auto& ba : supp.blocks)
        if (!ba.used)
            out.findings.push_back(
                {path, ba.begin, "bad-suppression",
                 "iflint:begin-allow(" + ba.rule +
                     ") block suppresses nothing; delete it"});
    for (const Finding& e : supp.errors)
        out.findings.push_back(e);
    std::sort(out.findings.begin(), out.findings.end(),
              [](const Finding& a, const Finding& b) {
                  return a.line < b.line;
              });
    return out;
}

namespace {

std::vector<std::string>
collectSourceFiles(const std::vector<std::string>& paths,
                   std::vector<std::string>& errors)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    auto wanted = [](const fs::path& p) {
        const std::string e = p.extension().string();
        return e == ".hh" || e == ".cc" || e == ".h" || e == ".cpp";
    };
    for (const std::string& p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (auto it = fs::recursive_directory_iterator(p, ec);
                 it != fs::recursive_directory_iterator(); ++it)
                if (it->is_regular_file(ec) && wanted(it->path()))
                    files.push_back(it->path().string());
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            errors.push_back("no such file or directory: " + p);
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

bool
readFile(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace

Pass1Result
runPass1(const std::vector<std::string>& paths)
{
    Pass1Result out;
    std::vector<std::string> errors;
    const std::vector<std::string> files = collectSourceFiles(paths, errors);
    for (const std::string& e : errors)
        out.findings.push_back({e, 0, "bad-suppression", "scan error"});

    std::map<std::string, std::vector<Token>> tokens;
    std::set<std::string> names, aliases;
    for (const std::string& f : files) {
        std::string text;
        if (!readFile(f, text)) {
            out.findings.push_back({f, 0, "bad-suppression",
                                    "cannot read file"});
            continue;
        }
        tokens[f] = tokenize(lexFile(text).code);
    }
    // Two rounds so aliases declared in later files still resolve
    // declarations in earlier ones.
    for (int round = 0; round < 2; ++round)
        for (const auto& [f, toks] : tokens)
            collectUnorderedNames(toks, names, aliases);

    for (const std::string& f : files) {
        if (!tokens.count(f))
            continue;
        std::string text;
        readFile(f, text);
        Pass1FileResult r = analyzeFile(f, text, names, aliases);
        ++out.filesScanned;
        out.suppressionsHonored += r.suppressionsHonored;
        out.findings.insert(out.findings.end(), r.findings.begin(),
                            r.findings.end());
    }
    return out;
}

// ===================================================================
// Pass 2: binary hot-path allocation proof
// ===================================================================

namespace {

const char* const kHotMarker = "E11if_hot_root";
const char* const kColdMarker = "E11if_cold_cut";

/** _ZZ<func-encoding>E11if_hot_root[_N]  ->  _Z<func-encoding> */
bool
deriveMarkedFunction(const std::string& sym, const char* marker,
                     std::string& fn)
{
    if (sym.compare(0, 3, "_ZZ") != 0)
        return false;
    const std::size_t mlen = std::strlen(marker);
    const std::size_t pos = sym.rfind(marker);
    if (pos == std::string::npos || pos < 3)
        return false;
    std::size_t t = pos + mlen;
    if (t < sym.size()) {
        if (sym[t] != '_')
            return false;
        for (++t; t < sym.size(); ++t)
            if (!std::isdigit(static_cast<unsigned char>(sym[t])))
                return false;
    }
    fn = "_Z" + sym.substr(3, pos - 3);
    return true;
}

std::string
stripSymbolDecor(std::string s)
{
    const std::size_t at = s.find('@');
    if (at != std::string::npos)
        s.resize(at);
    // Relocation operands carry an addend:  _Znwm-0x4 / foo+0x10
    const std::size_t add = s.find_last_of("+-");
    if (add != std::string::npos && add > 0 &&
        s.compare(add + 1, 2, "0x") == 0)
        s.resize(add);
    return s;
}

/** foo.cold / foo.part.3 are compiler-outlined fragments of foo (GCC
 *  moves [[unlikely]] branch bodies to .text.unlikely); attribute
 *  their call sites — and calls targeting them — to foo itself, or
 *  the fragments form disconnected graph nodes and allocations inside
 *  cold-outlined branches escape the proof. */
std::string
canonicalFunction(std::string s)
{
    for (;;) {
        if (s.size() > 5 && s.compare(s.size() - 5, 5, ".cold") == 0) {
            s.resize(s.size() - 5);
            continue;
        }
        const std::size_t p = s.rfind(".part.");
        if (p != std::string::npos && p + 6 < s.size()) {
            bool digits = true;
            for (std::size_t i = p + 6; i < s.size(); ++i)
                if (!std::isdigit(static_cast<unsigned char>(s[i]))) {
                    digits = false;
                    break;
                }
            if (digits) {
                s.resize(p);
                continue;
            }
        }
        return s;
    }
}

bool
isTerminalSink(const std::string& sym)
{
    if (sym == "abort" || sym == "exit" || sym == "_exit" ||
        sym == "_Exit" || sym == "__assert_fail" ||
        sym == "__stack_chk_fail")
        return true;
    // invisifence::panicImpl / fatalImpl are [[noreturn]] diagnostic
    // sinks; whatever they do on the way to abort()/exit() never
    // returns to the steady-state loop.
    return sym.find("panicImpl") != std::string::npos ||
           sym.find("fatalImpl") != std::string::npos;
}

} // namespace

bool
isKillSymbol(const std::string& m)
{
    if (m.compare(0, 4, "_Znw") == 0 || m.compare(0, 4, "_Zna") == 0)
        return true;
    static const std::set<std::string> kAllocFns = {
        "malloc",        "calloc",  "realloc",       "aligned_alloc",
        "posix_memalign", "memalign", "valloc",      "pvalloc",
        "strdup",        "strndup", "asprintf",      "vasprintf",
        "reallocarray"};
    if (kAllocFns.count(m))
        return true;
    if (m.find("__cxa_throw") != std::string::npos ||
        m.find("__cxa_allocate_exception") != std::string::npos ||
        m.find("__cxa_rethrow") != std::string::npos)
        return true;
    if (m.find("__throw_") != std::string::npos)
        return true;
    return false;
}

std::string
demangle(const std::string& sym)
{
    int status = 0;
    char* d = abi::__cxa_demangle(sym.c_str(), nullptr, nullptr, &status);
    if (status == 0 && d) {
        std::string out(d);
        std::free(d);
        return out;
    }
    std::free(d);
    return sym;
}

void
parseSymtab(const std::string& text, CallGraph& g)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t sp = line.find_last_of(" \t");
        if (sp == std::string::npos || sp + 1 >= line.size())
            continue;
        const std::string name = line.substr(sp + 1);
        std::string fn;
        if (deriveMarkedFunction(name, kHotMarker, fn))
            g.hotRoots.insert(fn);
        else if (deriveMarkedFunction(name, kColdMarker, fn))
            g.coldCuts.insert(fn);
    }
}

void
parseDisasm(const std::string& text, CallGraph& g)
{
    std::istringstream in(text);
    std::string line;
    std::string cur;
    bool pending = false;          // last line was a patchable call/jmp
    std::size_t pendingIdx = 0;    // index into g.calls[cur]

    auto isHex = [](const std::string& s) {
        if (s.empty())
            return false;
        for (char c : s)
            if (!std::isxdigit(static_cast<unsigned char>(c)))
                return false;
        return true;
    };

    while (std::getline(in, line)) {
        if (line.empty()) {
            pending = false;
            continue;
        }
        // Function header:  0000000000000000 <mangled>:
        if (std::isxdigit(static_cast<unsigned char>(line[0]))) {
            const std::size_t sp = line.find(' ');
            const std::size_t lt = line.find('<');
            if (sp != std::string::npos && lt != std::string::npos &&
                line.back() == ':' && isHex(line.substr(0, sp))) {
                cur = canonicalFunction(
                    line.substr(lt + 1, line.size() - lt - 3));
                g.defined.insert(cur);
                pending = false;
                continue;
            }
        }
        // Everything else of interest is indented.
        std::size_t i = line.find_first_not_of(" \t");
        if (i == std::string::npos) {
            pending = false;
            continue;
        }
        // "<addr>:" prefix common to instruction and relocation lines.
        std::size_t colon = line.find(':', i);
        if (colon == std::string::npos || !isHex(line.substr(i, colon - i))) {
            pending = false;
            continue;
        }
        std::size_t j = line.find_first_not_of(" \t", colon + 1);
        if (j == std::string::npos) {
            pending = false;
            continue;
        }
        // Relocation line:  <addr>: R_X86_64_PLT32  symbol-0x4
        if (line.compare(j, 2, "R_") == 0) {
            const std::size_t symBeg = line.find_last_of(" \t");
            if (pending && !cur.empty() && symBeg != std::string::npos) {
                const std::string sym = canonicalFunction(
                    stripSymbolDecor(line.substr(symBeg + 1)));
                if (!sym.empty())
                    g.calls[cur][pendingIdx] = sym;
            }
            pending = false;
            continue;
        }
        // Instruction line: addr: <bytes> \t mnemonic operands
        pending = false;
        const std::size_t tab = line.find('\t', j);
        if (tab == std::string::npos)
            continue;  // bytes-only continuation line
        const std::size_t mbeg = line.find_first_not_of(" \t", tab);
        if (mbeg == std::string::npos)
            continue;
        std::size_t mend = line.find_first_of(" \t", mbeg);
        if (mend == std::string::npos)
            mend = line.size();
        const std::string mnem = line.substr(mbeg, mend - mbeg);
        const bool isCall = mnem == "call" || mnem == "callq";
        const bool isJump = !isCall && !mnem.empty() && mnem[0] == 'j';
        if ((!isCall && !isJump) || cur.empty())
            continue;
        const std::string ops =
            mend < line.size() ? line.substr(mend) : std::string();
        if (ops.find('*') != std::string::npos &&
            ops.find('<') == std::string::npos) {
            if (isCall)
                ++g.indirect[cur];
            continue;
        }
        const std::size_t lt = ops.find('<');
        std::string base;
        if (lt != std::string::npos) {
            const std::size_t gt = ops.find('>', lt);
            if (gt != std::string::npos) {
                base = ops.substr(lt + 1, gt - lt - 1);
                const std::size_t plus = base.find('+');
                if (plus != std::string::npos)
                    base.resize(plus);
                base = canonicalFunction(stripSymbolDecor(base));
            }
        }
        // Always patchable: the <target> objdump guesses for a
        // not-yet-relocated call OR TAIL JUMP is the enclosing symbol
        // itself, so a self-target is only a placeholder until the
        // next line proves otherwise. Genuine intra-function jumps
        // (loops, branches) get no relocation line and their
        // placeholders are dropped below.
        g.calls[cur].push_back(base == cur ? std::string() : base);
        pendingIdx = g.calls[cur].size() - 1;
        pending = true;
    }
    // Drop unresolved intra-function call placeholders.
    for (auto& [fn, callees] : g.calls)
        callees.erase(std::remove(callees.begin(), callees.end(),
                                  std::string()),
                      callees.end());
}

std::vector<AllowEntry>
loadAllowFile(const std::string& text, std::vector<std::string>& errors)
{
    std::vector<AllowEntry> out;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t h = line.find('#');
        if (h != std::string::npos)
            line.resize(h);
        auto trim = [](std::string& s) {
            while (!s.empty() &&
                   std::isspace(static_cast<unsigned char>(s.front())))
                s.erase(s.begin());
            while (!s.empty() &&
                   std::isspace(static_cast<unsigned char>(s.back())))
                s.pop_back();
        };
        trim(line);
        if (line.empty())
            continue;
        const std::size_t bar = line.find('|');
        std::string pat =
            bar == std::string::npos ? line : line.substr(0, bar);
        std::string just =
            bar == std::string::npos ? std::string() : line.substr(bar + 1);
        trim(pat);
        trim(just);
        if (pat.empty() || just.empty()) {
            errors.push_back("alloc allow line " + std::to_string(lineno) +
                             ": need 'pattern | justification'");
            continue;
        }
        out.push_back({pat, just, 0});
    }
    return out;
}

Pass2Result
analyzeGraph(const CallGraph& g, std::vector<AllowEntry>& allow)
{
    Pass2Result out;
    out.functions = static_cast<int>(g.defined.size());
    for (const auto& [fn, callees] : g.calls)
        out.edges += static_cast<int>(callees.size());
    for (const auto& [fn, n] : g.indirect)
        out.indirectCalls += n;

    std::set<std::string> coldHit;
    std::set<std::pair<std::string, std::string>> reported;

    auto matchAllow = [&](const std::string& sym) -> bool {
        const std::string dem = demangle(sym);
        for (auto& a : allow) {
            if (sym.find(a.pattern) != std::string::npos ||
                dem.find(a.pattern) != std::string::npos) {
                ++a.hits;
                return true;
            }
        }
        return false;
    };

    for (const std::string& root : g.hotRoots) {
        if (!g.defined.count(root)) {
            out.missingRoots.push_back(root);
            continue;
        }
        ++out.rootsFound;
        std::map<std::string, std::string> parent;
        std::set<std::string> visited = {root};
        std::vector<std::string> queue = {root};
        while (!queue.empty()) {
            const std::string u = queue.back();
            queue.pop_back();
            auto it = g.calls.find(u);
            if (it == g.calls.end())
                continue;
            for (const std::string& v : it->second) {
                if (isKillSymbol(v)) {
                    if (reported.insert({root, v}).second) {
                        Violation viol;
                        viol.root = root;
                        viol.badSym = v;
                        std::vector<std::string> chain;
                        for (std::string w = u; !w.empty();) {
                            chain.push_back(w);
                            auto p = parent.find(w);
                            w = p == parent.end() ? std::string()
                                                  : p->second;
                        }
                        std::reverse(chain.begin(), chain.end());
                        chain.push_back(v);
                        viol.path = std::move(chain);
                        out.violations.push_back(std::move(viol));
                    }
                    continue;
                }
                if (isTerminalSink(v))
                    continue;
                if (g.coldCuts.count(v)) {
                    coldHit.insert(v);
                    continue;
                }
                if (matchAllow(v))
                    continue;
                if (visited.insert(v).second) {
                    parent[v] = u;
                    if (g.defined.count(v))
                        queue.push_back(v);
                }
            }
        }
    }
    out.coldCutsHit.assign(coldHit.begin(), coldHit.end());
    return out;
}

namespace {

std::string
shellQuote(const std::string& s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

bool
runCommand(const std::string& cmd, std::string& output)
{
    FILE* p = popen(cmd.c_str(), "r");
    if (!p)
        return false;
    char buf[4096];
    std::size_t got;
    while ((got = fread(buf, 1, sizeof(buf), p)) > 0)
        output.append(buf, got);
    return pclose(p) == 0;
}

} // namespace

Pass2Result
runPass2(const std::vector<std::string>& objectsOrDirs,
         const std::string& allowFilePath)
{
    namespace fs = std::filesystem;
    Pass2Result out;

    std::vector<std::string> objects;
    for (const std::string& p : objectsOrDirs) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (auto it = fs::recursive_directory_iterator(p, ec);
                 it != fs::recursive_directory_iterator(); ++it)
                if (it->is_regular_file(ec) &&
                    it->path().extension() == ".o")
                    objects.push_back(it->path().string());
        } else if (fs::is_regular_file(p, ec)) {
            objects.push_back(p);
        } else {
            out.errors.push_back("no such object or directory: " + p);
        }
    }
    std::sort(objects.begin(), objects.end());
    if (objects.empty()) {
        out.errors.push_back("no object files to analyze");
        return out;
    }

    const char* od = std::getenv("IFLINT_OBJDUMP");
    const std::string objdump = od && *od ? od : "objdump";

    CallGraph g;
    for (const std::string& obj : objects) {
        std::string sym, dis;
        if (!runCommand(objdump + " -t " + shellQuote(obj) + " 2>/dev/null",
                        sym) ||
            !runCommand(objdump + " -dr " + shellQuote(obj) +
                            " 2>/dev/null",
                        dis)) {
            out.errors.push_back("objdump failed on " + obj);
            continue;
        }
        parseSymtab(sym, g);
        parseDisasm(dis, g);
    }

    std::vector<AllowEntry> allow;
    if (!allowFilePath.empty()) {
        std::string text;
        if (!readFile(allowFilePath, text)) {
            out.errors.push_back("cannot read allow file: " +
                                 allowFilePath);
            return out;
        }
        allow = loadAllowFile(text, out.errors);
    }
    if (!out.errors.empty())
        return out;

    Pass2Result r = analyzeGraph(g, allow);
    r.errors = out.errors;
    for (const AllowEntry& a : allow)
        if (a.hits == 0)
            r.errors.push_back("warning: unused allow pattern '" +
                               a.pattern + "'");
    return r;
}

} // namespace iflint
