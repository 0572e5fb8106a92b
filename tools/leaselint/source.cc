#include "leaselint/source.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace leaselint {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * Extract rule names from "leaselint: allow(a, b)" inside comment text.
 * @return true when the "leaselint:" marker was present at all, so the
 *         caller can distinguish "no suppression" from "suppression
 *         written but unparseable".
 */
bool
parseAllows(const std::string &comment, std::vector<std::string> &rules)
{
    std::size_t at = comment.find("leaselint:");
    bool sawMarker = at != std::string::npos;
    while (at != std::string::npos) {
        std::size_t open = comment.find("allow(", at);
        if (open == std::string::npos) break;
        std::size_t close = comment.find(')', open);
        if (close == std::string::npos) break;
        std::string inside =
            comment.substr(open + 6, close - (open + 6));
        std::string name;
        auto flush = [&] {
            if (!name.empty()) rules.push_back(name);
            name.clear();
        };
        for (char c : inside) {
            if (identChar(c) || c == '-') {
                name += c;
            } else {
                flush();
            }
        }
        flush();
        at = comment.find("leaselint:", close);
    }
    return sawMarker;
}

} // namespace

SourceFile
SourceFile::fromString(std::string path, const std::string &text)
{
    SourceFile f;
    f.path_ = std::move(path);

    // Split into lines (tolerate missing trailing newline). A trailing
    // '\r' is stripped so CRLF files parse — and suppress findings —
    // exactly like their LF-normalized form.
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t nl = text.find('\n', start);
        std::string line = nl == std::string::npos
                               ? text.substr(start)
                               : text.substr(start, nl - start);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (nl == std::string::npos) {
            if (start < text.size()) f.lines_.push_back(std::move(line));
            break;
        }
        f.lines_.push_back(std::move(line));
        start = nl + 1;
    }
    if (f.lines_.empty()) f.lines_.emplace_back();

    // Build the code view with a cross-line scanner. Comment text is
    // collected per line so suppressions can be attached to their line.
    enum class State { Code, Block, Str, Chr };
    State state = State::Code;
    f.code_.reserve(f.lines_.size());
    f.allows_.assign(f.lines_.size(), {});
    f.ownAllows_.assign(f.lines_.size(), {});

    for (std::size_t li = 0; li < f.lines_.size(); ++li) {
        const std::string &raw = f.lines_[li];
        std::string code(raw.size(), ' ');
        std::string comment;
        for (std::size_t i = 0; i < raw.size(); ++i) {
            char c = raw[i];
            char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
            switch (state) {
              case State::Code:
                if (c == '/' && next == '/') {
                    comment += raw.substr(i);
                    i = raw.size();
                } else if (c == '/' && next == '*') {
                    state = State::Block;
                    ++i;
                } else if (c == '"') {
                    state = State::Str;
                    code[i] = '"';
                } else if (c == '\'') {
                    state = State::Chr;
                    code[i] = '\'';
                } else {
                    code[i] = c;
                }
                break;
              case State::Block:
                if (c == '*' && next == '/') {
                    state = State::Code;
                    ++i;
                } else {
                    comment += c;
                }
                break;
              case State::Str:
                if (c == '\\') {
                    ++i;
                } else if (c == '"') {
                    state = State::Code;
                    code[i] = '"';
                }
                break;
              case State::Chr:
                if (c == '\\') {
                    ++i;
                } else if (c == '\'') {
                    state = State::Code;
                    code[i] = '\'';
                }
                break;
            }
        }
        // Unterminated string/char at EOL: treat as closed (macro line
        // continuation of literals does not occur in this codebase).
        if (state == State::Str || state == State::Chr) state = State::Code;

        f.code_.push_back(std::move(code));
        std::vector<std::string> rules;
        bool sawMarker = parseAllows(comment, rules);
        if (sawMarker && rules.empty())
            f.malformedAllows_.push_back(li + 1);
        for (auto &rule : rules) {
            f.ownAllows_[li].push_back(rule);
            f.allows_[li].push_back(rule);
            if (li + 1 < f.allows_.size())
                f.allows_[li + 1].push_back(rule);
        }
    }

    f.lineStart_.reserve(f.code_.size());
    for (const auto &line : f.code_) {
        f.lineStart_.push_back(f.codeText_.size());
        f.codeText_ += line;
        f.codeText_ += '\n';
    }
    return f;
}

std::optional<SourceFile>
SourceFile::load(const std::string &fsPath, std::string displayPath)
{
    std::ifstream in(fsPath, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromString(std::move(displayPath), buf.str());
}

std::size_t
SourceFile::lineOfOffset(std::size_t offset) const
{
    auto it = std::upper_bound(lineStart_.begin(), lineStart_.end(), offset);
    return static_cast<std::size_t>(it - lineStart_.begin());
}

bool
SourceFile::allowed(const std::string &rule, std::size_t line) const
{
    if (line == 0 || line > allows_.size()) return false;
    const auto &rules = allows_[line - 1];
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::size_t
findToken(const std::string &text, const std::string &token,
          std::size_t from)
{
    if (token.empty()) return std::string::npos;
    std::size_t at = text.find(token, from);
    while (at != std::string::npos) {
        bool leftOk = at == 0 || !identChar(text[at - 1]);
        std::size_t end = at + token.size();
        bool rightOk = end >= text.size() || !identChar(text[end]);
        if (leftOk && rightOk) return at;
        at = text.find(token, at + 1);
    }
    return std::string::npos;
}

bool
underDir(const std::string &path, const std::string &prefix)
{
    if (path.size() < prefix.size()) return false;
    if (path.compare(0, prefix.size(), prefix) != 0) return false;
    return path.size() == prefix.size() || prefix.back() == '/' ||
           path[prefix.size()] == '/';
}

} // namespace leaselint
