#include "sim/json.hh"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>

namespace ruu
{

namespace
{

/** Escape a string for a JSON literal (names here are ASCII). */
std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
configToJson(const UarchConfig &config)
{
    std::ostringstream os;
    os << "{";
    os << "\"pool_entries\": " << config.poolEntries;
    os << ", \"dispatch_paths\": " << config.dispatchPaths;
    os << ", \"commit_width\": " << config.commitWidth;
    os << ", \"result_buses\": " << config.resultBuses;
    os << ", \"load_registers\": " << config.loadRegisters;
    os << ", \"counter_bits\": " << config.counterBits;
    os << ", \"history_entries\": " << config.historyEntries;
    os << ", \"tu_entries\": " << config.tuEntries;
    os << ", \"rs_per_fu\": " << config.rsPerFu;
    os << ", \"memory_banks\": " << config.memoryBanks;
    os << ", \"bank_busy_cycles\": " << config.bankBusyCycles;
    os << ", \"store_latency\": " << config.storeLatency;
    os << ", \"forward_latency\": " << config.forwardLatency;
    os << ", \"bypass\": \"" << bypassModeName(config.bypass) << "\"";
    os << ", \"predictor\": \"" << predictorKindName(config.predictor)
       << "\"";
    os << ", \"predictor_table_bits\": " << config.predictorTableBits;
    os << ", \"predicted_taken_penalty\": "
       << config.predictedTakenPenalty;
    os << ", \"mispredict_penalty\": " << config.mispredictPenalty;
    os << ", \"branch_taken_penalty\": " << config.branchTakenPenalty;
    os << ", \"branch_untaken_penalty\": "
       << config.branchUntakenPenalty;
    os << ", \"fu_latency\": {";
    for (unsigned i = 0; i + 1 < kNumFuKinds; ++i) {
        os << (i ? ", " : "") << "\""
           << fuKindName(static_cast<FuKind>(i))
           << "\": " << config.fuLatency[i];
    }
    os << "}";
    os << ", \"fu_count\": {";
    for (unsigned i = 0; i + 1 < kNumFuKinds; ++i) {
        os << (i ? ", " : "") << "\""
           << fuKindName(static_cast<FuKind>(i))
           << "\": " << config.fuCount[i];
    }
    os << "}}";
    return os.str();
}

namespace
{

/**
 * Recursive-descent reader for the configToJson subset of JSON: one
 * object whose values are unsigned numbers, strings, or one level of
 * nested number-valued objects. Errors carry the byte offset so a
 * truncated or hand-edited file points at the damage.
 */
class ConfigReader
{
  public:
    explicit ConfigReader(const std::string &text) : _text(text) {}

    bool failed() const { return _failed; }
    Error takeError() { return std::move(_error); }

    void
    fail(const std::string &what)
    {
        if (_failed)
            return;
        _failed = true;
        _error = Error("offset " + std::to_string(_pos) + ": " + what);
    }

    void
    skipSpace()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos]))) {
            ++_pos;
        }
    }

    bool atEnd() { skipSpace(); return _pos >= _text.size(); }

    bool
    peekIs(char c)
    {
        skipSpace();
        return _pos < _text.size() && _text[_pos] == c;
    }

    void
    expect(char c)
    {
        skipSpace();
        if (_pos >= _text.size()) {
            fail(std::string("unexpected end of input, expected '") +
                 c + "'");
            return;
        }
        if (_text[_pos] != c) {
            fail(std::string("expected '") + c + "', found '" +
                 _text[_pos] + "'");
            return;
        }
        ++_pos;
    }

    std::string
    readString()
    {
        expect('"');
        std::string out;
        while (!_failed) {
            if (_pos >= _text.size()) {
                fail("unterminated string");
                break;
            }
            char c = _text[_pos++];
            if (c == '"')
                break;
            if (c == '\\') {
                if (_pos >= _text.size()) {
                    fail("unterminated escape");
                    break;
                }
                c = _text[_pos++];
            }
            out += c;
        }
        return out;
    }

    std::uint64_t
    readUnsigned()
    {
        skipSpace();
        std::size_t start = _pos;
        while (_pos < _text.size() &&
               std::isdigit(static_cast<unsigned char>(_text[_pos]))) {
            ++_pos;
        }
        if (_pos == start) {
            fail("expected a non-negative integer");
            return 0;
        }
        return std::strtoull(_text.c_str() + start, nullptr, 10);
    }

    /**
     * Read `{"key": value, ...}` handing each key to @p member, which
     * consumes the value (and may fail() on an unknown key).
     */
    template <typename Fn>
    void
    readObject(Fn &&member)
    {
        expect('{');
        if (peekIs('}')) {
            ++_pos;
            return;
        }
        while (!_failed) {
            member(readString());
            if (_failed)
                return;
            if (peekIs(',')) {
                ++_pos;
                continue;
            }
            expect('}');
            return;
        }
    }

  private:
    const std::string &_text;
    std::size_t _pos = 0;
    bool _failed = false;
    Error _error;
};

std::optional<BypassMode>
bypassFromName(const std::string &name)
{
    for (auto mode : {BypassMode::Full, BypassMode::None,
                      BypassMode::LimitedA, BypassMode::FutureFile}) {
        if (name == bypassModeName(mode))
            return mode;
    }
    return std::nullopt;
}

std::optional<PredictorKind>
predictorFromName(const std::string &name)
{
    for (auto kind :
         {PredictorKind::AlwaysTaken, PredictorKind::AlwaysNotTaken,
          PredictorKind::Btfn, PredictorKind::Smith2Bit}) {
        if (name == predictorKindName(kind))
            return kind;
    }
    return std::nullopt;
}

std::optional<FuKind>
fuKindFromName(const std::string &name)
{
    for (unsigned i = 0; i < kNumFuKinds; ++i)
        if (name == fuKindName(static_cast<FuKind>(i)))
            return static_cast<FuKind>(i);
    return std::nullopt;
}

} // namespace

Expected<UarchConfig>
parseUarchConfig(const std::string &text)
{
    UarchConfig config = UarchConfig::cray1();
    ConfigReader r(text);

    auto number = [&](unsigned &field) {
        r.expect(':');
        std::uint64_t v = r.readUnsigned();
        if (v > std::numeric_limits<unsigned>::max())
            r.fail("value " + std::to_string(v) + " out of range");
        else
            field = static_cast<unsigned>(v);
    };

    r.readObject([&](const std::string &key) {
        if (key == "pool_entries") {
            number(config.poolEntries);
        } else if (key == "dispatch_paths") {
            number(config.dispatchPaths);
        } else if (key == "commit_width") {
            number(config.commitWidth);
        } else if (key == "result_buses") {
            number(config.resultBuses);
        } else if (key == "load_registers") {
            number(config.loadRegisters);
        } else if (key == "counter_bits") {
            number(config.counterBits);
        } else if (key == "history_entries") {
            number(config.historyEntries);
        } else if (key == "tu_entries") {
            number(config.tuEntries);
        } else if (key == "rs_per_fu") {
            number(config.rsPerFu);
        } else if (key == "memory_banks") {
            number(config.memoryBanks);
        } else if (key == "bank_busy_cycles") {
            number(config.bankBusyCycles);
        } else if (key == "store_latency") {
            number(config.storeLatency);
        } else if (key == "forward_latency") {
            number(config.forwardLatency);
        } else if (key == "branch_taken_penalty") {
            number(config.branchTakenPenalty);
        } else if (key == "branch_untaken_penalty") {
            number(config.branchUntakenPenalty);
        } else if (key == "predictor_table_bits") {
            number(config.predictorTableBits);
        } else if (key == "predicted_taken_penalty") {
            number(config.predictedTakenPenalty);
        } else if (key == "mispredict_penalty") {
            number(config.mispredictPenalty);
        } else if (key == "bypass") {
            r.expect(':');
            std::string name = r.readString();
            if (auto mode = bypassFromName(name))
                config.bypass = *mode;
            else
                r.fail("unknown bypass mode '" + name + "'");
        } else if (key == "predictor") {
            r.expect(':');
            std::string name = r.readString();
            if (auto kind = predictorFromName(name))
                config.predictor = *kind;
            else
                r.fail("unknown predictor '" + name + "'");
        } else if (key == "fu_latency") {
            r.expect(':');
            r.readObject([&](const std::string &fu) {
                if (auto kind = fuKindFromName(fu)) {
                    unsigned idx = static_cast<unsigned>(*kind);
                    number(config.fuLatency[idx]);
                } else {
                    r.fail("unknown functional unit '" + fu + "'");
                }
            });
        } else if (key == "fu_count") {
            r.expect(':');
            r.readObject([&](const std::string &fu) {
                if (auto kind = fuKindFromName(fu)) {
                    unsigned idx = static_cast<unsigned>(*kind);
                    number(config.fuCount[idx]);
                } else {
                    r.fail("unknown functional unit '" + fu + "'");
                }
            });
        } else {
            r.fail("unknown config key '" + key + "'");
        }
    });
    if (!r.failed() && !r.atEnd())
        r.fail("trailing characters after the config object");
    if (r.failed())
        return r.takeError().context("config JSON");

    std::string invalid = config.validate();
    if (!invalid.empty())
        return Error(invalid).context("config JSON");
    return config;
}

std::string
runToJson(const std::string &workload, const std::string &core_name,
          const RunResult &result, const StatSet &stats)
{
    std::ostringstream os;
    os << "{";
    os << "\"workload\": \"" << escape(workload) << "\"";
    os << ", \"core\": \"" << escape(core_name) << "\"";
    os << ", \"cycles\": " << result.cycles;
    os << ", \"instructions\": " << result.instructions;
    os << ", \"issue_rate\": " << result.issueRate();
    os << ", \"interrupted\": "
       << (result.interrupted ? "true" : "false");
    if (result.interrupted) {
        os << ", \"fault\": {\"kind\": \"" << faultName(result.fault)
           << "\", \"seq\": " << result.faultSeq
           << ", \"pc\": " << result.faultPc << "}";
    }
    os << ", \"counters\": {";
    bool first = true;
    for (const auto &name : stats.counterNames()) {
        os << (first ? "" : ", ") << "\"" << escape(name)
           << "\": " << stats.value(name);
        first = false;
    }
    os << "}, \"histograms\": {";
    first = true;
    for (const auto &name : stats.histogramNames()) {
        const Histogram &histogram = stats.histogramAt(name);
        os << (first ? "" : ", ") << "\"" << escape(name)
           << "\": {\"mean\": " << histogram.mean()
           << ", \"min\": " << histogram.min()
           << ", \"max\": " << histogram.max()
           << ", \"count\": " << histogram.count() << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace ruu
