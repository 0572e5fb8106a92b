#ifndef LEASELINT_SOURCE_H
#define LEASELINT_SOURCE_H

/**
 * @file
 * Source-file model for leaselint: raw lines, a "code view" with comments
 * and string/char literals blanked out (so token matches never fire inside
 * prose or log strings), and the per-line suppression map parsed from
 * `// leaselint: allow(rule-a, rule-b)` comments.
 *
 * A suppression applies to the line carrying the comment and to the line
 * immediately below it, so both styles work:
 *
 *     foo();  // leaselint: allow(determinism) -- justification
 *
 *     // leaselint: allow(determinism) -- justification
 *     foo();
 *
 * Line endings are normalized at parse time: a trailing '\r' (CRLF
 * files) is stripped from every line before the code view and the
 * suppression map are built, so a Windows checkout lints identically to
 * a Unix one.
 */

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace leaselint {

class SourceFile
{
  public:
    /** Parse @p text as the contents of @p path (no filesystem access). */
    static SourceFile fromString(std::string path, const std::string &text);

    /** Load from disk; nullopt if the file cannot be read. */
    static std::optional<SourceFile> load(const std::string &fsPath,
                                          std::string displayPath);

    const std::string &path() const { return path_; }
    std::size_t lineCount() const { return lines_.size(); }

    /** Raw text of 1-based line @p line (no trailing newline). */
    const std::string &rawLine(std::size_t line) const
    {
        return lines_[line - 1];
    }

    /** Code view of 1-based line @p line: comments/literals blanked. */
    const std::string &codeLine(std::size_t line) const
    {
        return code_[line - 1];
    }

    /** Whole code view joined with '\n' (for multi-line scanning). */
    const std::string &codeText() const { return codeText_; }

    /** 1-based line number containing code-view offset @p offset. */
    std::size_t lineOfOffset(std::size_t offset) const;

    /** True if @p rule is suppressed on 1-based @p line. */
    bool allowed(const std::string &rule, std::size_t line) const;

    /** allows()[i] = rules suppressed on line i+1 (comment + next line). */
    const std::vector<std::vector<std::string>> &allows() const
    {
        return allows_;
    }

    /**
     * ownAllows()[i] = rules named by an allow() comment ON line i+1
     * itself (no next-line propagation) — one entry per written
     * suppression, for auditing them.
     */
    const std::vector<std::vector<std::string>> &ownAllows() const
    {
        return ownAllows_;
    }

    /**
     * 1-based lines whose comment contains the "leaselint:" marker but
     * parses to no rule names (missing paren, empty allow()): the
     * author wrote a suppression that silently suppresses nothing.
     */
    const std::vector<std::size_t> &malformedAllowLines() const
    {
        return malformedAllows_;
    }

  private:
    std::string path_;
    std::vector<std::string> lines_;
    std::vector<std::string> code_;
    std::string codeText_;
    /** lineStart_[i] = offset of line i+1 in codeText_. */
    std::vector<std::size_t> lineStart_;
    /** allows_[i] = rules suppressed on line i+1. */
    std::vector<std::vector<std::string>> allows_;
    std::vector<std::vector<std::string>> ownAllows_;
    std::vector<std::size_t> malformedAllows_;
};

/**
 * Find @p token in @p text at identifier boundaries (neither neighbour is
 * [A-Za-z0-9_]), starting at @p from.
 * @return offset of the match or std::string::npos.
 */
std::size_t findToken(const std::string &text, const std::string &token,
                      std::size_t from = 0);

/** True if @p path (with '/' separators) starts with directory @p prefix. */
bool underDir(const std::string &path, const std::string &prefix);

} // namespace leaselint

#endif // LEASELINT_SOURCE_H
