/**
 * @file
 * Tests for the ResultSink emitters: the JSON document round-trips the
 * fields the text table shows, keeps key order stable, and parses with a
 * minimal checker (no JSON library in the tree — the emitter must stay
 * simple enough to validate by hand).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/result_sink.h"
#include "obs/trace_export.h"

namespace leaseos::harness {
namespace {

using Value = ResultSink::Value;

// ---- Minimal JSON checker ----------------------------------------------
// Parses the subset the sinks emit: an object of strings/arrays, rows as
// flat objects of string/number/null. Returns key/value pairs in document
// order so key-order stability is checkable.

struct MiniParser {
    const std::string &s;
    std::size_t i = 0;

    explicit MiniParser(const std::string &text) : s(text) {}

    void
    ws()
    {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(
                                   s[i])))
            ++i;
    }
    bool
    eat(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }
    std::string
    parseString()
    {
        ws();
        EXPECT_EQ(s.at(i), '"');
        ++i;
        std::string out;
        while (s.at(i) != '"') {
            if (s[i] == '\\') {
                ++i;
                switch (s.at(i)) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  default: ADD_FAILURE() << "escape " << s[i];
                }
                ++i;
            } else {
                out += s[i++];
            }
        }
        ++i;
        return out;
    }
    /** Scalar: quoted string, number, or null — returned as text. */
    std::string
    parseScalar()
    {
        ws();
        if (s.at(i) == '"') return parseString();
        std::string out;
        while (i < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[i])) ||
                s[i] == '-' || s[i] == '+' || s[i] == '.'))
            out += s[i++];
        EXPECT_FALSE(out.empty()) << "scalar expected at offset " << i;
        return out;
    }
    /** Flat object; returns (key, scalar-text) in document order. */
    std::vector<std::pair<std::string, std::string>>
    parseFlatObject()
    {
        std::vector<std::pair<std::string, std::string>> out;
        EXPECT_TRUE(eat('{'));
        if (eat('}')) return out;
        do {
            std::string key = parseString();
            EXPECT_TRUE(eat(':'));
            out.emplace_back(key, parseScalar());
        } while (eat(','));
        EXPECT_TRUE(eat('}'));
        return out;
    }
};

/** Parse the whole sink document; fills bench/caption/rows. */
struct ParsedDoc {
    std::string bench;
    std::string caption;
    std::vector<std::vector<std::pair<std::string, std::string>>> rows;
};

ParsedDoc
parseDocument(const std::string &text)
{
    ParsedDoc doc;
    MiniParser p(text);
    EXPECT_TRUE(p.eat('{'));
    while (true) {
        std::string key = p.parseString();
        EXPECT_TRUE(p.eat(':'));
        if (key == "bench") {
            doc.bench = p.parseString();
        } else if (key == "caption") {
            doc.caption = p.parseString();
        } else if (key == "rows") {
            EXPECT_TRUE(p.eat('['));
            if (!p.eat(']')) {
                do {
                    doc.rows.push_back(p.parseFlatObject());
                } while (p.eat(','));
                EXPECT_TRUE(p.eat(']'));
            }
        } else {
            ADD_FAILURE() << "unexpected key " << key;
        }
        if (!p.eat(',')) break;
    }
    EXPECT_TRUE(p.eat('}'));
    return doc;
}

ResultSink::Row
sampleRow(const std::string &app, double power, std::int64_t deferrals)
{
    return {{"App", Value::str(app)},
            {"Power (mW)", Value::num(power)},
            {"Deferrals", Value::count(deferrals)}};
}

TEST(JsonSinkTest, DocumentRoundTripsRows)
{
    JsonSink sink;
    sink.begin("Table X", "power \"quoted\" caption\nsecond line");
    sink.addRow(sampleRow("K-9 Mail", 890.355, 12));
    sink.addSeparator(); // JSON ignores separators
    sink.addRow(sampleRow("Torch", 0.5, 0));
    sink.finish();

    ParsedDoc doc = parseDocument(sink.document());
    EXPECT_EQ(doc.bench, "Table X");
    EXPECT_EQ(doc.caption, "power \"quoted\" caption\nsecond line");
    ASSERT_EQ(doc.rows.size(), 2u);
    EXPECT_EQ(doc.rows[0][0].second, "K-9 Mail");
    EXPECT_EQ(doc.rows[0][1].second, "890.36"); // fixed precision 2
    EXPECT_EQ(doc.rows[0][2].second, "12");
    EXPECT_EQ(doc.rows[1][0].second, "Torch");
    EXPECT_EQ(doc.rows[1][2].second, "0");
}

TEST(JsonSinkTest, KeyOrderIsStableAndMatchesInsertion)
{
    JsonSink sink;
    sink.begin("Table X", "");
    sink.addRow(sampleRow("a", 1.0, 1));
    sink.addRow(sampleRow("b", 2.0, 2));
    sink.finish();

    ParsedDoc doc = parseDocument(sink.document());
    const std::vector<std::string> expected = {"App", "Power (mW)",
                                              "Deferrals"};
    for (const auto &row : doc.rows) {
        ASSERT_EQ(row.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
            EXPECT_EQ(row[i].first, expected[i]);
    }
}

TEST(JsonSinkTest, JsonCarriesTheFieldsTheTextTableShows)
{
    ResultSink::Row row = sampleRow("Kontalk", 123.456, 7);

    std::ostringstream tableOut;
    TextTableSink table(tableOut);
    JsonSink json;
    TeeSink tee({&table, &json});
    tee.begin("Table Y", "caption");
    tee.addRow(row);
    tee.finish();

    ParsedDoc doc = parseDocument(json.document());
    ASSERT_EQ(doc.rows.size(), 1u);
    for (const auto &[key, value] : doc.rows[0]) {
        // Every JSON key is a table column and every value appears in
        // the rendered table verbatim.
        EXPECT_NE(tableOut.str().find(key), std::string::npos) << key;
        EXPECT_NE(tableOut.str().find(value), std::string::npos) << value;
    }
}

TEST(JsonSinkTest, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonSinkTest, WritesFileOnFinish)
{
    std::string path = ::testing::TempDir() + "leaseos_sink_test.json";
    JsonSink sink(path);
    sink.begin("Table Z", "file output");
    sink.addRow(sampleRow("app", 1.0, 2));
    sink.finish();

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), sink.document());
}

TEST(TextTableSinkTest, RendersHeaderAndSeparators)
{
    std::ostringstream out;
    TextTableSink sink(out);
    sink.begin("Table W", "caption text");
    sink.addRow(sampleRow("K-9", 890.35, 3));
    sink.addSeparator();
    sink.addRow(sampleRow("Average", 1.0, 0));
    sink.finish();

    std::string text = out.str();
    EXPECT_NE(text.find("Table W"), std::string::npos);
    EXPECT_NE(text.find("caption text"), std::string::npos);
    EXPECT_NE(text.find("890.35"), std::string::npos);
    EXPECT_NE(text.find("Average"), std::string::npos);
}

TEST(ResultSinkTest, BenchArtifactPathUsesEnvDir)
{
    // Without LEASEOS_OUT the artifact lands in the CWD.
    unsetenv("LEASEOS_OUT");
    EXPECT_EQ(benchArtifactPath("table5"), "BENCH_table5.json");
    setenv("LEASEOS_OUT", "/tmp/out", 1);
    EXPECT_EQ(benchArtifactPath("table5"), "/tmp/out/BENCH_table5.json");
    unsetenv("LEASEOS_OUT");
}

} // namespace
} // namespace leaseos::harness
