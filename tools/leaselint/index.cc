#include "leaselint/index.h"

#include <algorithm>
#include <cctype>

#include "leaselint/rules.h"

namespace leaselint {

namespace {

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::size_t
skipWs(const std::string &text, std::size_t at)
{
    while (at < text.size() && isSpace(text[at])) ++at;
    return at;
}

/** Offset just past the ')' matching text[open] == '('. */
std::size_t
matchParen(const std::string &text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '(') ++depth;
        else if (text[i] == ')' && --depth == 0) return i + 1;
    }
    return text.size();
}

/** Offset just past the '}' matching text[open] == '{'. */
std::size_t
matchBrace(const std::string &text, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '{') ++depth;
        else if (text[i] == '}' && --depth == 0) return i + 1;
    }
    return text.size();
}

/** Keywords that look like calls ("if (") but are not. */
bool
isControlKeyword(const std::string &name)
{
    static const char *kw[] = {"if",       "for",          "while",
                               "switch",   "catch",        "return",
                               "sizeof",   "alignof",      "decltype",
                               "typeid",   "static_assert", "throw",
                               "new",      "delete",       "alignas",
                               "co_await", "co_return",    "co_yield"};
    for (const char *k : kw)
        if (name == k) return true;
    return false;
}

const char *const kRegMethods[] = {"counter", "histogram", "boundCounter",
                                   "boundGauge"};

/**
 * Blank every preprocessor line (first non-ws char '#', plus backslash
 * continuations) so #define bodies and #include paths never register as
 * functions, calls, or scopes.
 */
std::string
stripPreprocessor(const SourceFile &file)
{
    std::string out = file.codeText();
    std::size_t lineStart = 0;
    bool continued = false;
    for (std::size_t i = 0; i <= out.size(); ++i) {
        if (i == out.size() || out[i] == '\n') {
            std::size_t first = lineStart;
            while (first < i && (out[first] == ' ' || out[first] == '\t'))
                ++first;
            bool pp = continued || (first < i && out[first] == '#');
            std::size_t last = i;
            while (last > lineStart && isSpace(out[last - 1])) --last;
            continued = pp && last > lineStart && out[last - 1] == '\\';
            if (pp)
                for (std::size_t j = lineStart; j < i; ++j) out[j] = ' ';
            lineStart = i + 1;
        }
    }
    return out;
}

// ---- structural extractor -----------------------------------------------

class Extractor
{
  public:
    Extractor(const SourceFile &file, FileIndex &out)
        : file_(file), out_(out), text_(stripPreprocessor(file))
    {
    }

    void
    run()
    {
        std::size_t i = 0;
        while (i < text_.size()) {
            char c = text_[i];
            if (isSpace(c)) {
                ++i;
                continue;
            }
            if (identStart(c) || c == '~') {
                i = handleToken(i);
                continue;
            }
            if (c == '{') {
                openScope(i);
                stmt_.clear();
                prev_ = '{';
                ++i;
                continue;
            }
            if (c == '}') {
                closeScope(i);
                stmt_.clear();
                prev_ = '}';
                ++i;
                continue;
            }
            if (c == ';') stmt_.clear();
            prev_ = c;
            ++i;
        }
        // Unterminated scopes (truncated file): close functions at EOF.
        while (!scopes_.empty()) closeScope(text_.size() - 1);
    }

  private:
    struct Scope {
        enum Kind { Namespace, Class, Func, Block } kind;
        std::string name;
        std::uint32_t func = kNoFunc;
    };

    /** Qualified identifier (with :: chains and ~) starting at @p at. */
    std::string
    readQualified(std::size_t &at)
    {
        std::string name;
        while (at < text_.size()) {
            if (text_[at] == '~') {
                name += '~';
                ++at;
            }
            std::size_t start = at;
            while (at < text_.size() && identChar(text_[at])) ++at;
            name += text_.substr(start, at - start);
            if (at + 1 < text_.size() && text_[at] == ':' &&
                text_[at + 1] == ':' && at + 2 < text_.size() &&
                (identStart(text_[at + 2]) || text_[at + 2] == '~')) {
                name += "::";
                at += 2;
            } else {
                break;
            }
        }
        return name;
    }

    static std::string
    lastComponent(const std::string &qualified)
    {
        std::size_t at = qualified.rfind("::");
        return at == std::string::npos ? qualified
                                       : qualified.substr(at + 2);
    }

    std::uint32_t
    enclosingFunc() const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it)
            if (it->kind == Scope::Func) return it->func;
        return kNoFunc;
    }

    /** Scope-qualify @p name with the enclosing class/namespace names. */
    std::string
    qualify(const std::string &name) const
    {
        std::string full;
        for (const Scope &s : scopes_) {
            if ((s.kind == Scope::Class || s.kind == Scope::Namespace) &&
                !s.name.empty()) {
                full += s.name;
                full += "::";
            }
        }
        return full + name;
    }

    /** True when the char before offset @p at (skipping ws) is . or ->. */
    bool
    isMethodCall(std::size_t at) const
    {
        while (at > 0 && isSpace(text_[at - 1])) --at;
        if (at == 0) return false;
        if (text_[at - 1] == '.') {
            // Exclude "0.5(" style (not valid code anyway) and "...".
            return at < 2 ||
                   !std::isdigit(static_cast<unsigned char>(text_[at - 2]));
        }
        return at >= 2 && text_[at - 2] == '-' && text_[at - 1] == '>';
    }

    void
    recordCall(const std::string &callee, std::size_t nameOff,
               std::uint32_t func)
    {
        std::size_t line = file_.lineOfOffset(nameOff);
        bool method = isMethodCall(nameOff);
        out_.calls.push_back({func, callee, line, method});

        const auto &pairs = apiPairs();
        for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
            bool release = callee == pairs[pi].release;
            if (callee != pairs[pi].acquire && !release) continue;
            std::size_t indent = 0;
            const std::string &raw = file_.rawLine(line);
            while (indent < raw.size() &&
                   (raw[indent] == ' ' || raw[indent] == '\t'))
                ++indent;
            out_.resources.push_back(
                {func, static_cast<std::uint16_t>(pi), release, line,
                 indent});
        }
        if (method) {
            for (const char *reg : kRegMethods) {
                if (callee == reg) {
                    out_.regs.push_back({func, callee, line});
                    break;
                }
            }
        }
    }

    /** Record calls in [from, to) attributed to @p func (init lists). */
    void
    scanCallsIn(std::size_t from, std::size_t to, std::uint32_t func)
    {
        std::size_t i = from;
        while (i < to) {
            if (!identStart(text_[i]) && text_[i] != '~') {
                ++i;
                continue;
            }
            std::size_t nameOff = i;
            std::string name = readQualified(i);
            std::size_t j = skipWs(text_, i);
            if (j < to && text_[j] == '(' &&
                !isControlKeyword(lastComponent(name))) {
                recordCall(lastComponent(name), nameOff, func);
                i = j + 1;
            }
        }
    }

    /**
     * After a parameter list ending at @p afterParams, decide whether a
     * function body follows. Handles cv/ref qualifiers, noexcept(...),
     * trailing return types, and constructor initializer lists (whose
     * extent is reported via @p initFrom / @p initTo for call
     * attribution).
     */
    bool
    parseHeaderTail(std::size_t afterParams, std::size_t &bodyOpen,
                    std::size_t &initFrom, std::size_t &initTo)
    {
        std::size_t j = skipWs(text_, afterParams);
        initFrom = initTo = 0;
        while (j < text_.size()) {
            char c = text_[j];
            if (c == '{') {
                bodyOpen = j;
                return true;
            }
            if (c == ';' || c == ',' || c == ')' || c == '=') return false;
            if (c == '&') {
                j = skipWs(text_, j + 1);
                continue;
            }
            if (c == '-' && j + 1 < text_.size() && text_[j + 1] == '>') {
                // Trailing return type: scan to the body/terminator.
                j += 2;
                while (j < text_.size() && text_[j] != '{' &&
                       text_[j] != ';')
                    j = text_[j] == '(' ? matchParen(text_, j) : j + 1;
                continue;
            }
            if (c == ':') {
                // Constructor initializer list; skip "name(args)" /
                // "name{args}" items up to the body brace.
                initFrom = j + 1;
                j = skipWs(text_, j + 1);
                while (j < text_.size()) {
                    if (!identStart(text_[j])) break;
                    readQualified(j);
                    if (j < text_.size() && text_[j] == '<')
                        j = skipAngles(j);
                    j = skipWs(text_, j);
                    if (j < text_.size() && text_[j] == '(')
                        j = matchParen(text_, j);
                    else if (j < text_.size() && text_[j] == '{')
                        j = matchBrace(text_, j);
                    j = skipWs(text_, j);
                    if (j < text_.size() && text_[j] == ',')
                        j = skipWs(text_, j + 1);
                    else
                        break;
                }
                initTo = j;
                continue;
            }
            if (identStart(c)) {
                std::size_t w = j;
                std::string word = readQualified(w);
                if (word == "const" || word == "noexcept" ||
                    word == "override" || word == "final" ||
                    word == "mutable" || word == "try" ||
                    word == "requires") {
                    j = w;
                    if (j < text_.size() && text_[j] == '(')
                        j = matchParen(text_, j);
                    j = skipWs(text_, j);
                    continue;
                }
                return false;
            }
            return false;
        }
        return false;
    }

    /** Skip a balanced <...> starting at text_[at] == '<'. */
    std::size_t
    skipAngles(std::size_t at)
    {
        int depth = 0;
        for (std::size_t i = at; i < text_.size(); ++i) {
            if (text_[i] == '<') ++depth;
            else if (text_[i] == '>' && --depth == 0) return i + 1;
            else if (text_[i] == ';' || text_[i] == '{') return i;
        }
        return text_.size();
    }

    /** Handle an identifier at @p at; returns the resume offset. */
    std::size_t
    handleToken(std::size_t at)
    {
        std::size_t nameOff = at;
        std::size_t i = at;
        std::string name = readQualified(i);
        if (name == "template" || name == "operator") {
            // Skip template parameter lists; fold operator tokens into a
            // name so "operator==(...)" is seen as one unit.
            if (name == "template") {
                std::size_t j = skipWs(text_, i);
                if (j < text_.size() && text_[j] == '<')
                    return skipAngles(j);
                return i;
            }
            while (i < text_.size() && !isSpace(text_[i]) &&
                   text_[i] != '(')
                name += text_[i++];
        }
        stmt_.push_back(name);
        prev_ = 'a';

        std::size_t j = skipWs(text_, i);
        if (j >= text_.size() || text_[j] != '(') return i;

        std::string last = lastComponent(name);
        if (isControlKeyword(last)) return matchParen(text_, j);

        if (enclosingFunc() != kNoFunc) {
            recordCall(last, nameOff, enclosingFunc());
            return j + 1; // descend into the argument list
        }

        // Class / namespace / file scope: a definition header, or a
        // declaration to skip.
        std::size_t afterParams = matchParen(text_, j);
        std::size_t bodyOpen = 0, initFrom = 0, initTo = 0;
        if (!parseHeaderTail(afterParams, bodyOpen, initFrom, initTo))
            return afterParams;

        FuncDef def;
        def.name = qualify(name);
        def.startLine = file_.lineOfOffset(nameOff);
        out_.funcs.push_back(std::move(def));
        pendingFunc_ = static_cast<std::uint32_t>(out_.funcs.size() - 1);
        if (initTo > initFrom)
            scanCallsIn(initFrom, initTo, pendingFunc_);
        return bodyOpen; // the '{' is consumed by the main loop next
    }

    void
    openScope(std::size_t at)
    {
        (void)at;
        Scope s;
        if (pendingFunc_ != kNoFunc) {
            s.kind = Scope::Func;
            s.func = pendingFunc_;
            pendingFunc_ = kNoFunc;
            scopes_.push_back(std::move(s));
            return;
        }
        // Brace-init / lambda / compound statements are plain blocks.
        if (prev_ == '=' || prev_ == ',' || prev_ == '(' || prev_ == '{' ||
            prev_ == '[') {
            s.kind = Scope::Block;
            scopes_.push_back(std::move(s));
            return;
        }
        bool sawEnum = false;
        for (std::size_t t = 0; t < stmt_.size(); ++t) {
            const std::string &tok = stmt_[t];
            if (tok == "enum") sawEnum = true;
            if (tok == "namespace") {
                s.kind = Scope::Namespace;
                if (t + 1 < stmt_.size()) s.name = stmt_[t + 1];
                scopes_.push_back(std::move(s));
                return;
            }
            if (!sawEnum &&
                (tok == "class" || tok == "struct" || tok == "union")) {
                s.kind = Scope::Class;
                if (t + 1 < stmt_.size()) s.name = stmt_[t + 1];
                scopes_.push_back(std::move(s));
                return;
            }
        }
        s.kind = Scope::Block;
        scopes_.push_back(std::move(s));
    }

    void
    closeScope(std::size_t at)
    {
        if (scopes_.empty()) return;
        Scope s = scopes_.back();
        scopes_.pop_back();
        if (s.kind == Scope::Func && s.func != kNoFunc)
            out_.funcs[s.func].endLine = file_.lineOfOffset(at);
    }

    const SourceFile &file_;
    FileIndex &out_;
    std::string text_;
    std::vector<Scope> scopes_;
    std::vector<std::string> stmt_; ///< tokens since last ; { }
    char prev_ = ';';               ///< last significant char
    std::uint32_t pendingFunc_ = kNoFunc;
};

// ---- enum / switch harvest (for the switch-exhaustive link rule) --------

std::size_t
skipWsPub(const std::string &text, std::size_t at)
{
    return skipWs(text, at);
}

std::string
readIdent(const std::string &text, std::size_t &at)
{
    std::size_t start = at;
    while (at < text.size() && identChar(text[at])) ++at;
    return text.substr(start, at - start);
}

void
harvestEnums(const SourceFile &file, FileIndex &out)
{
    const std::string &text = file.codeText();
    std::size_t at = 0;
    while ((at = findToken(text, "enum", at)) != std::string::npos) {
        std::size_t cur = skipWsPub(text, at + 4);
        at += 4;
        std::size_t kw = cur;
        std::string cls = readIdent(text, kw);
        if (cls != "class" && cls != "struct") continue;
        cur = skipWsPub(text, kw);
        std::string enumName = readIdent(text, cur);
        if (enumName.empty()) continue;
        cur = skipWsPub(text, cur);
        if (cur < text.size() && text[cur] == ':') {
            while (cur < text.size() && text[cur] != '{' && text[cur] != ';')
                ++cur;
        }
        if (cur >= text.size() || text[cur] != '{') continue;
        std::size_t bodyEnd = matchBrace(text, cur) - 1;

        EnumDef def;
        def.name = enumName;
        std::size_t p = cur + 1;
        while (p < bodyEnd) {
            p = skipWsPub(text, p);
            if (p >= bodyEnd) break;
            std::string value = readIdent(text, p);
            if (!value.empty()) def.values.push_back(value);
            int depth = 0;
            while (p < bodyEnd) {
                char c = text[p];
                if (c == '(' || c == '{') ++depth;
                else if (c == ')' || c == '}') --depth;
                else if (c == ',' && depth == 0) {
                    ++p;
                    break;
                }
                ++p;
            }
        }
        out.enums.push_back(std::move(def));
    }
}

void
harvestSwitches(const SourceFile &file, FileIndex &out)
{
    const std::string &text = file.codeText();
    std::size_t at = 0;
    while ((at = findToken(text, "switch", at)) != std::string::npos) {
        std::size_t kwAt = at;
        at += 6;
        std::size_t open = skipWsPub(text, kwAt + 6);
        if (open >= text.size() || text[open] != '(') continue;
        std::size_t afterCond = matchParen(text, open);
        std::size_t bodyOpen = skipWsPub(text, afterCond);
        if (bodyOpen >= text.size() || text[bodyOpen] != '{') continue;
        std::size_t bodyEnd = matchBrace(text, bodyOpen) - 1;

        // Collect case labels, grouped by the qualifying enum name.
        std::vector<SwitchSite> sites;
        bool hasDefault = false;
        std::size_t p = bodyOpen + 1;
        while (p < bodyEnd) {
            std::size_t caseAt = findToken(text, "case", p);
            std::size_t defAt = findToken(text, "default", p);
            if (defAt != std::string::npos && defAt < bodyEnd)
                hasDefault = true;
            if (caseAt == std::string::npos || caseAt >= bodyEnd) break;
            std::size_t cur = skipWsPub(text, caseAt + 4);
            std::vector<std::string> parts;
            while (cur < bodyEnd) {
                std::string part = readIdent(text, cur);
                if (part.empty()) break;
                parts.push_back(part);
                if (cur + 1 < bodyEnd && text[cur] == ':' &&
                    text[cur + 1] == ':')
                    cur += 2;
                else
                    break;
            }
            if (parts.size() >= 2) {
                const std::string &enumName = parts[parts.size() - 2];
                auto it = std::find_if(sites.begin(), sites.end(),
                                       [&](const SwitchSite &s) {
                                           return s.enumName == enumName;
                                       });
                if (it == sites.end()) {
                    sites.push_back({file.lineOfOffset(kwAt), false,
                                     enumName, {}});
                    it = sites.end() - 1;
                }
                it->values.push_back(parts.back());
            }
            p = caseAt + 4;
        }
        for (SwitchSite &s : sites) {
            s.hasDefault = hasDefault;
            out.switches.push_back(std::move(s));
        }
    }
}

} // namespace

const std::vector<ApiPair> &
apiPairs()
{
    static const std::vector<ApiPair> pairs = {
        {"acquire", "release"},                      // wakelock + wifi lock
        {"requestLocationUpdates", "removeUpdates"}, // GPS subscription
        {"registerListener", "unregisterListener"},  // sensor subscription
        {"startScan", "stopScan"},                   // bluetooth discovery
        {"startPlayback", "stopPlayback"},           // audio session
        {"openSession", "closeSession"},             // audio session object
    };
    return pairs;
}

bool
FileIndex::allowed(const std::string &rule, std::size_t line) const
{
    if (line == 0 || line > allows.size()) return false;
    const auto &rules = allows[line - 1];
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

FileIndex
buildIndex(const SourceFile &file)
{
    FileIndex index;
    index.path = file.path();
    index.allows = file.allows();

    Extractor(file, index).run();
    harvestEnums(file, index);
    harvestSwitches(file, index);

    checkDeterminism(file, index.findings);
    checkPtrOrderedIteration(file, index.findings);
    checkMacroSideEffect(file, index.findings);
    checkProxyBypass(file, index.findings);
    checkFlatMapHotpath(file, index.findings);
    checkBadSuppression(file, index.findings);
    return index;
}

} // namespace leaselint
