#ifndef LEASEOS_HARNESS_RESULT_SINK_H
#define LEASEOS_HARNESS_RESULT_SINK_H

/**
 * @file
 * Machine-readable result emission for the bench binaries.
 *
 * A bench assembles rows of named cells once and hands them to one or
 * more ResultSinks: TextTableSink renders the familiar aligned table on
 * stdout, JsonSink writes a `BENCH_<name>.json` artifact so sweeps can be
 * diffed, plotted, and regression-checked without scraping text. Key
 * order is stable: cells serialise in insertion order in every emitter.
 *
 * The module also owns the $LEASEOS_OUT artifact-directory convention and
 * the figure benches' raw time-series CSV export (maybeExportSeriesCsv),
 * so every escaping/formatting rule lives in exactly one place.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/time_series.h"

namespace leaseos::harness {

/**
 * Consumer of experiment result rows.
 */
class ResultSink
{
  public:
    /** One cell: tagged text / fixed-precision number / integer. */
    struct Value {
        enum class Kind { Text, Number, Integer };

        Kind kind = Kind::Text;
        std::string text;
        double number = 0.0;
        std::int64_t integer = 0;
        int precision = 2;

        static Value
        str(std::string s)
        {
            Value v;
            v.kind = Kind::Text;
            v.text = std::move(s);
            return v;
        }
        static Value
        num(double d, int precision = 2)
        {
            Value v;
            v.kind = Kind::Number;
            v.number = d;
            v.precision = precision;
            return v;
        }
        static Value
        count(std::int64_t i)
        {
            Value v;
            v.kind = Kind::Integer;
            v.integer = i;
            return v;
        }

        /** Rendering for text tables (numbers at fixed precision). */
        std::string toText() const;
        /** Rendering for JSON (quoted+escaped text, raw numerals). */
        std::string toJson() const;
    };

    /** Ordered named cells; order is the column/key order everywhere. */
    using Row = std::vector<std::pair<std::string, Value>>;

    virtual ~ResultSink() = default;

    /** Start a result set. @p benchId names the artefact ("Table 5"). */
    virtual void begin(const std::string &benchId,
                       const std::string &caption) = 0;
    virtual void addRow(const Row &row) = 0;
    /** Visual separator; JSON emitters ignore it. */
    virtual void addSeparator() {}
    /** Flush the result set (render the table / write the file). */
    virtual void finish() = 0;
};

/**
 * Renders rows as the aligned text table the benches always printed,
 * with a figureHeader() banner, to an ostream (defaults to stdout).
 * Column headers come from the first row's keys.
 */
class TextTableSink : public ResultSink
{
  public:
    explicit TextTableSink(std::ostream &out);
    TextTableSink();

    void begin(const std::string &benchId,
               const std::string &caption) override;
    void addRow(const Row &row) override;
    void addSeparator() override;
    void finish() override;

  private:
    std::ostream &out_;
    std::vector<std::string> headers_;
    std::vector<std::pair<bool, std::vector<std::string>>> rows_;
    std::string header_;
};

/**
 * Serialises the result set as one JSON document:
 *
 *     {"bench": "...", "caption": "...",
 *      "rows": [{"col": value, ...}, ...]}
 *
 * Keys keep row insertion order. With a path, finish() writes the file;
 * document() returns the serialised text either way.
 */
class JsonSink : public ResultSink
{
  public:
    /** In-memory document only (tests, embedding). */
    JsonSink() = default;
    /** Write to @p path on finish(). */
    explicit JsonSink(std::string path);

    void begin(const std::string &benchId,
               const std::string &caption) override;
    void addRow(const Row &row) override;
    void finish() override;

    std::string document() const;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::string benchId_;
    std::string caption_;
    std::vector<Row> rows_;
};

/** Broadcasts every call to a set of sinks (table + JSON together). */
class TeeSink : public ResultSink
{
  public:
    explicit TeeSink(std::vector<ResultSink *> sinks)
        : sinks_(std::move(sinks)) {}

    void
    begin(const std::string &benchId, const std::string &caption) override
    {
        for (auto *s : sinks_) s->begin(benchId, caption);
    }
    void
    addRow(const Row &row) override
    {
        for (auto *s : sinks_) s->addRow(row);
    }
    void
    addSeparator() override
    {
        for (auto *s : sinks_) s->addSeparator();
    }
    void
    finish() override
    {
        for (auto *s : sinks_) s->finish();
    }

  private:
    std::vector<ResultSink *> sinks_;
};

/** JSON string escaping (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

/** CSV field escaping: quote (doubling inner quotes) only when needed. */
std::string csvEscape(const std::string &s);

/**
 * Artifact path for a bench: `$LEASEOS_OUT/BENCH_<name>.json` when the
 * export directory is configured, else `BENCH_<name>.json` in the CWD.
 */
std::string benchArtifactPath(const std::string &benchName);

/** Artifact directory from $LEASEOS_OUT, or empty when export is off. */
std::string csvOutputDir();

/**
 * Raw time-series export for the figure benches: write @p series as
 * "<$LEASEOS_OUT>/<name>.csv" with one shared time column per row (blank
 * cells where a series has no sample at that instant).
 * @retval true if a file was written (false when export is disabled).
 */
bool maybeExportSeriesCsv(const std::string &name,
                          const std::vector<const sim::TimeSeries *> &series);

/** Single-series convenience overload. */
bool maybeExportSeriesCsv(const std::string &name,
                          const sim::TimeSeries &series);

} // namespace leaseos::harness

#endif // LEASEOS_HARNESS_RESULT_SINK_H
