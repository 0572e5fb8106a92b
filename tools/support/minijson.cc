#include "support/minijson.h"

#include <cstdio>
#include <cstdlib>

namespace leaseos::minijson {

namespace {

const std::string kEmpty;

/**
 * Deepest array/object nesting parse() accepts. The parser recurses once
 * per level, so this bounds its stack use on hostile input.
 */
constexpr std::size_t kMaxDepth = 512;

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    ParseResult
    run()
    {
        ParseResult result;
        skipWs();
        if (!parseValue(result.value)) {
            result.error = error_;
            result.line = line_;
            return result;
        }
        skipWs();
        if (pos_ != text_.size()) {
            result.error = "trailing characters after the document";
            result.line = line_;
        }
        return result;
    }

  private:
    bool
    fail(const char *message)
    {
        if (error_.empty()) error_ = message;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '\n') ++line_;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(Value &out)
    {
        if (pos_ >= text_.size()) return fail("unexpected end of input");
        switch (text_[pos_]) {
        case '{': return nested(&Parser::parseObject, out);
        case '[': return nested(&Parser::parseArray, out);
        case '"':
            out.kind = Value::Kind::String;
            return parseString(out.raw);
        case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.kind = Value::Kind::Null;
            return literal("null");
        default: return parseNumber(out);
        }
    }

    /** Parse a container with @p parse one level deeper, up to kMaxDepth. */
    bool
    nested(bool (Parser::*parse)(Value &), Value &out)
    {
        if (depth_ == kMaxDepth) return fail("nesting too deep");
        ++depth_;
        const bool ok = (this->*parse)(out);
        --depth_;
        return ok;
    }

    bool
    parseObject(Value &out)
    {
        out.kind = Value::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key)) return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            skipWs();
            Value member;
            if (!parseValue(member)) return false;
            out.object.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(Value &out)
    {
        out.kind = Value::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            Value element;
            if (!parseValue(element)) return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos_ >= text_.size()) return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    static void
    appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (pos_ + 1 >= text_.size())
                    return fail("unterminated escape");
                char esc = text_[pos_ + 1];
                pos_ += 2;
                switch (esc) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_ + static_cast<std::size_t>(i)];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= unsigned(h - 'A' + 10);
                        else return fail("invalid \\u escape digit");
                    }
                    pos_ += 4;
                    appendUtf8(out, code);
                    break;
                }
                default: return fail("unknown escape character");
                }
                continue;
            }
            if (c == '\n') ++line_;
            out.push_back(c);
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        auto eatDigits = [&] {
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                digits = true;
            }
        };
        eatDigits();
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            eatDigits();
        }
        if (!digits) return fail("invalid number");
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '-' || text_[pos_] == '+'))
                ++pos_;
            bool expDigits = false;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                expDigits = true;
            }
            if (!expDigits) return fail("invalid number exponent");
        }
        out.kind = Value::Kind::Number;
        out.raw.assign(text_.substr(start, pos_ - start));
        out.number = std::strtod(out.raw.c_str(), nullptr);
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::size_t depth_ = 0;
    std::string error_;
};

} // namespace

const Value *
Value::find(std::string_view key) const
{
    if (kind != Kind::Object) return nullptr;
    for (const auto &[k, v] : object)
        if (k == key) return &v;
    return nullptr;
}

const std::string &
Value::asString() const
{
    return isString() ? raw : kEmpty;
}

ParseResult
parse(std::string_view text)
{
    return Parser(text).run();
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace leaseos::minijson
