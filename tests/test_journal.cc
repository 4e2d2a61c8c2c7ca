/**
 * @file
 * The three JSONL journals — the inject campaign journal, the serve
 * recovery journal and the campaign-queue journal — over the shared
 * reader and writer in common/journal.hh.
 *
 * Part one pins the on-disk bytes: literal golden lines for the header
 * and every record type of each format, written through the public
 * writers. Part two runs the shared reader contract once per format as
 * a typed test: round trip, a torn final line forgiven with exact
 * validBytes, interior damage refused with its line number, bad
 * headers refused, resume isolation, and a refused journal left
 * untouched. Per-format behaviour (campaign identity, the queue's
 * verify hook, campaign resume) stays in test_inject.cc and
 * test_serve.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/journal.hh"
#include "inject/journal.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/recovery.hh"

namespace ruu
{
namespace
{

class JournalDir : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/ruu_journal_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        _dir = tmpl;
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(_dir, ec);
    }

    std::string path() const { return _dir + "/journal.jsonl"; }

    std::string
    bytes() const
    {
        std::ifstream in(path(), std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    void
    overwrite(const std::string &text) const
    {
        std::ofstream out(path(), std::ios::binary | std::ios::trunc);
        out << text;
    }

    std::string _dir;
};

// ---------------------------------------------------------------------
// Golden lines: the bytes every format writes, spelled out literally.

using JournalGolden = JournalDir;

const char *const kInjectHeader =
    R"({"kind": "ruu-inject-journal", "version": 1, "seed": 3, )"
    R"("trials": 10, "cores": "ruu,history", "workloads": "lll01,lll03", )"
    R"("config": "{\"pool_entries\": 10} +ibuf"})";

const char *const kInjectTrial =
    R"({"index": 42, "seed": 12345678901234567890, "core": "ruu", )"
    R"("workload": "lll03", "cycle": 1234, "bit": 77, )"
    R"("port": "ruu[3].destTag (tag, 32 bits) bit 5", "before": 17, )"
    R"("after": 49, "outcome": "sdc", "cycles": 999, "retries": 1, )"
    R"("detail": "line one\nline \"two\"\twith\\escapes\u0001"})";

const char *const kServeHeader =
    R"({"kind": "ruu-serve-journal", "version": 1, )"
    R"("cache": "/var/ruu/cache \"x\""})";

const char *const kServeRecord =
    R"({"key": "deadbeefcafef00d", "checksum": "0123456789abcdef", )"
    R"("bytes": 4242})";

const char *const kQueueHeader =
    R"({"kind": "ruu-serve-queue", "version": 1, )"
    R"("cache": "/var/ruu/cache"})";

const char *const kQueueStormCampaign =
    R"({"rec": "campaign", "id": "storm:lll01", "ckind": "storm", )"
    R"("workloads": "lll01,lll02", "cores": "ruu,history", )"
    R"("periods": "64,256", "trials": 0, "seed": 1, )"
    R"("config": "{\"pool_entries\": 12}", "deadline_ms": 500})";

const char *const kQueueInjectCampaign =
    R"({"rec": "campaign", "id": "inj", "ckind": "inject", )"
    R"("workloads": "lll03", "cores": "ruu", "periods": "", )"
    R"("trials": 2, "seed": 7, "config": "", "deadline_ms": 0})";

const char *const kQueueDoneUnit =
    R"({"rec": "unit", "id": "storm:lll01", "unit": 0, )"
    R"("status": "done", "cached": 1, "key": "deadbeefcafef00d", )"
    R"("checksum": "0123456789abcdef", "bytes": 13, "error": ""})";

const char *const kQueueFailedUnit =
    R"({"rec": "unit", "id": "storm:lll01", "unit": 1, )"
    R"("status": "timed-out", "cached": 0, "key": "0000000000000000", )"
    R"("checksum": "0000000000000000", "bytes": 0, )"
    R"("error": "deadline \"500\" ms"})";

const char *const kQueueCancel =
    R"({"rec": "cancel", "id": "storm:lll01"})";

inject::JournalHeader
goldenInjectHeader()
{
    inject::JournalHeader header;
    header.seed = 3;
    header.trials = 10;
    header.cores = {"ruu", "history"};
    header.workloads = {"lll01", "lll03"};
    header.config = "{\"pool_entries\": 10} +ibuf";
    return header;
}

inject::TrialResult
goldenTrial()
{
    inject::TrialResult trial;
    trial.point.index = 42;
    trial.point.seed = 12345678901234567890ull;
    trial.point.core = "ruu";
    trial.point.workload = "lll03";
    trial.point.cycle = 1234;
    trial.point.bit = 77;
    trial.outcome = inject::Outcome::Sdc;
    trial.port = "ruu[3].destTag (tag, 32 bits) bit 5";
    trial.before = 17;
    trial.after = 49;
    trial.cycles = 999;
    trial.retries = 1;
    trial.detail = "line one\nline \"two\"\twith\\escapes\x01";
    return trial;
}

serve::JobRecord
goldenJobRecord()
{
    serve::JobRecord record;
    record.key = 0xdeadbeefcafef00dull;
    record.checksum = 0x0123456789abcdefull;
    record.bytes = 4242;
    return record;
}

serve::CampaignSpec
goldenStormCampaign()
{
    serve::CampaignSpec spec;
    spec.id = "storm:lll01";
    spec.kind = serve::CampaignKind::Storm;
    spec.workloads = {"lll01", "lll02"};
    spec.cores = {"ruu", "history"};
    spec.periods = {64, 256};
    spec.configJson = "{\"pool_entries\": 12}";
    spec.deadlineMs = 500;
    return spec;
}

serve::CampaignSpec
goldenInjectCampaign()
{
    serve::CampaignSpec spec;
    spec.id = "inj";
    spec.kind = serve::CampaignKind::Inject;
    spec.workloads = {"lll03"};
    spec.cores = {"ruu"};
    spec.trials = 2;
    spec.seed = 7;
    return spec;
}

TEST_F(JournalGolden, InjectHeaderAndTrial)
{
    inject::JournalWriter writer;
    ASSERT_TRUE(writer.create(path(), goldenInjectHeader()).ok());
    ASSERT_TRUE(writer.add(goldenTrial()).ok());
    EXPECT_EQ(bytes(),
              std::string(kInjectHeader) + "\n" + kInjectTrial + "\n");
    EXPECT_EQ(inject::trialToLine(goldenTrial()), kInjectTrial);
}

TEST_F(JournalGolden, ServeHeaderAndJobRecord)
{
    serve::ServeJournalHeader header;
    header.cacheDir = "/var/ruu/cache \"x\"";
    serve::ServeJournalWriter writer;
    ASSERT_TRUE(writer.create(path(), header).ok());
    ASSERT_TRUE(writer.add(goldenJobRecord()).ok());
    EXPECT_EQ(bytes(),
              std::string(kServeHeader) + "\n" + kServeRecord + "\n");
}

TEST_F(JournalGolden, QueueHeaderCampaignsUnitsAndCancel)
{
    {
        serve::CampaignQueue queue;
        ASSERT_TRUE(queue.open(path(), "/var/ruu/cache", nullptr).ok());
        ASSERT_TRUE(queue.submit(goldenStormCampaign(), 1024).ok());
        ASSERT_TRUE(queue.submit(goldenInjectCampaign(), 1024).ok());
        EXPECT_TRUE(queue.complete("storm:lll01", 0,
                                   serve::JobStatus::Done, true,
                                   0xdeadbeefcafef00dull,
                                   0x0123456789abcdefull, 13,
                                   "{\"cycles\": 5}"));
        EXPECT_TRUE(queue.complete("storm:lll01", 1,
                                   serve::JobStatus::TimedOut, false, 0,
                                   0, 0, "deadline \"500\" ms"));
        ASSERT_TRUE(queue.cancel("storm:lll01").ok());
    }
    EXPECT_EQ(bytes(), std::string(kQueueHeader) + "\n" +
                           kQueueStormCampaign + "\n" +
                           kQueueInjectCampaign + "\n" +
                           kQueueDoneUnit + "\n" + kQueueFailedUnit +
                           "\n" + kQueueCancel + "\n");
}

// ---------------------------------------------------------------------
// The shared reader contract, once per format.

/** A header and records of every shape, per format. */
template <typename Format>
struct Sample;

template <>
struct Sample<inject::JournalFormat>
{
    static inject::JournalHeader header() { return goldenInjectHeader(); }

    static std::vector<inject::TrialResult>
    records()
    {
        inject::TrialResult masked = goldenTrial();
        masked.point.index = 43;
        masked.outcome = inject::Outcome::Masked;
        masked.detail.clear();
        return {goldenTrial(), masked};
    }
};

template <>
struct Sample<serve::ServeJournalFormat>
{
    static serve::CachePinHeader header() { return {"/var/ruu/c \"x\""}; }

    static std::vector<serve::JobRecord>
    records()
    {
        serve::JobRecord other{7, 8, 9};
        return {goldenJobRecord(), other};
    }
};

template <>
struct Sample<serve::QueueJournalFormat>
{
    static serve::CachePinHeader header() { return {"/var/ruu/cache"}; }

    static std::vector<serve::QueueRecord>
    records()
    {
        serve::QueueRecord campaign;
        campaign.campaign = goldenStormCampaign();
        serve::QueueRecord inject;
        inject.campaign = goldenInjectCampaign();
        serve::QueueRecord done;
        done.type = serve::QueueRecord::Type::Unit;
        done.id = "storm:lll01";
        done.cached = true;
        done.key = 0xdeadbeefcafef00dull;
        done.checksum = 0x0123456789abcdefull;
        done.bytes = 13;
        serve::QueueRecord failed = done;
        failed.unit = 1;
        failed.status = serve::JobStatus::Crashed;
        failed.error = "signal \"11\"";
        serve::QueueRecord cancel;
        cancel.type = serve::QueueRecord::Type::Cancel;
        cancel.id = "storm:lll01";
        return {campaign, inject, done, failed, cancel};
    }
};

template <typename Format>
class JournalContract : public JournalDir
{
  protected:
    using Header = typename Format::Header;
    using Record = typename Format::Record;

    static std::vector<Record> records() { return Sample<Format>::records(); }

    /** Write the sample journal; returns its bytes. */
    std::string
    writeSample() const
    {
        journal::Writer<Format> writer;
        EXPECT_TRUE(writer.create(path(), Sample<Format>::header()).ok());
        for (const Record &record : records())
            EXPECT_TRUE(writer.add(record).ok());
        return bytes();
    }

    /** The sample's header line, without its newline. */
    std::string
    headerLine() const
    {
        std::string text = writeSample();
        return text.substr(0, text.find('\n'));
    }

    static std::string line(const Record &record)
    {
        return Format::toLine(record);
    }

    /** Resume with a replay that accepts and counts the records. */
    Expected<bool>
    resume(journal::Writer<Format> &writer, std::size_t &replayed) const
    {
        return writer.open(path(), Sample<Format>::header(),
                           [&](const journal::Contents<Format> &contents)
                               -> Expected<bool> {
                               replayed = contents.records.size();
                               return true;
                           });
    }

    /** read() refuses the journal, with a message holding @p what. */
    void
    expectRefused(const std::string &what) const
    {
        auto contents = journal::read<Format>(path());
        ASSERT_FALSE(contents.ok());
        EXPECT_NE(contents.error().message().find(what), std::string::npos)
            << contents.error().message();
    }
};

using Formats = ::testing::Types<inject::JournalFormat,
                                 serve::ServeJournalFormat,
                                 serve::QueueJournalFormat>;

struct FormatName
{
    template <typename Format>
    static std::string
    GetName(int index)
    {
        return index == 0 ? "Inject" : index == 1 ? "Serve" : "Queue";
    }
};
TYPED_TEST_SUITE(JournalContract, Formats, FormatName);

TYPED_TEST(JournalContract, RoundTrips)
{
    std::string text = this->writeSample();
    auto contents = journal::read<TypeParam>(this->path());
    ASSERT_TRUE(contents.ok()) << contents.error().message();
    EXPECT_FALSE(contents->tornTail);
    EXPECT_FALSE(contents->unterminated);
    EXPECT_EQ(contents->validBytes, text.size());
    EXPECT_EQ(TypeParam::headerFields(contents->header),
              TypeParam::headerFields(Sample<TypeParam>::header()));
    auto records = this->records();
    ASSERT_EQ(contents->records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(this->line(contents->records[i]),
                  this->line(records[i]));
}

TYPED_TEST(JournalContract, TornFinalLineIsForgivenWithExactValidBytes)
{
    std::string clean = this->writeSample();
    std::string full = this->line(this->records()[0]);
    // Killed mid-append, with or without the newline landing, and with
    // blank lines after it.
    for (const std::string &fragment :
         {full.substr(0, full.size() / 2),
          full.substr(0, full.size() - 1) + "\n",
          full.substr(0, 3) + "\n\n"}) {
        this->overwrite(clean + fragment);
        auto contents = journal::read<TypeParam>(this->path());
        ASSERT_TRUE(contents.ok()) << contents.error().message();
        EXPECT_TRUE(contents->tornTail) << fragment;
        EXPECT_EQ(contents->records.size(), this->records().size());
        EXPECT_EQ(contents->validBytes, clean.size()) << fragment;
        EXPECT_FALSE(contents->unterminated);
    }
}

TYPED_TEST(JournalContract, InteriorDamageIsRefusedWithItsLineNumber)
{
    std::string header = this->headerLine();
    std::string record = this->line(this->records()[0]);
    this->overwrite(header + "\n" + record + "\n\nnot a record\n" +
                    record + "\n");
    this->expectRefused("' line 4: ");
    // A torn line stays a torn line only while it is the last one.
    this->overwrite(header + "\n" + record.substr(0, 5) + "\n" + record +
                    "\n");
    this->expectRefused("' line 2: ");
}

TYPED_TEST(JournalContract, BadHeadersAreRefused)
{
    std::string header = this->headerLine();
    std::string record = this->line(this->records()[0]);
    auto replace = [&](const std::string &from, const std::string &to) {
        std::string text = header;
        text.replace(text.find(from), from.size(), to);
        return text + "\n" + record + "\n";
    };
    this->overwrite("");
    this->expectRefused("has no header line");
    this->overwrite("\n\n");
    this->expectRefused("has no header line");
    this->overwrite(record + "\n");
    this->expectRefused("' line 1: ");
    this->overwrite(replace(TypeParam::kKind, "ruu-other-journal"));
    this->expectRefused("kind 'ruu-other-journal' is not '" +
                        std::string(TypeParam::kKind) + "'");
    this->overwrite(replace("\"version\": 1", "\"version\": 2"));
    this->expectRefused("unsupported version 2");
    this->overwrite(replace("\"version\": 1, ", ""));
    this->expectRefused("missing key 'version'");
    this->overwrite(header.substr(0, header.size() / 2));
    this->expectRefused("' line 1: ");
}

TYPED_TEST(JournalContract, RefusedJournalIsLeftUntouched)
{
    std::string clean = this->writeSample();
    std::string record = this->line(this->records()[0]);
    std::string torn = clean + record.substr(0, record.size() / 2);

    // The caller's identity check refuses: the torn tail stays.
    this->overwrite(torn);
    {
        journal::Writer<TypeParam> writer;
        auto opened = writer.open(
            this->path(), Sample<TypeParam>::header(),
            [](const journal::Contents<TypeParam> &) -> Expected<bool> {
                return Error("a different campaign");
            });
        ASSERT_FALSE(opened.ok());
        EXPECT_EQ(opened.error().message(), "a different campaign");
        EXPECT_FALSE(writer.isOpen());
    }
    EXPECT_EQ(this->bytes(), torn);

    // The reader refuses (interior damage, a foreign header): replay
    // never runs and nothing is written.
    std::string header = this->headerLine();
    for (const std::string &text :
         {header + "\ngarbage\n" + record + "\n",
          std::string("{\"kind\": \"ruu-other\", \"version\": 1}\n")}) {
        this->overwrite(text);
        journal::Writer<TypeParam> writer;
        std::size_t replayed = 99;
        EXPECT_FALSE(this->resume(writer, replayed).ok());
        EXPECT_EQ(replayed, 99u);
        EXPECT_EQ(this->bytes(), text);
    }
}

TYPED_TEST(JournalContract, AbsentJournalIsCreatedWithItsHeader)
{
    journal::Writer<TypeParam> writer;
    std::size_t replayed = 99;
    ASSERT_TRUE(this->resume(writer, replayed).ok());
    EXPECT_EQ(replayed, 99u) << "replay ran on a journal just created";
    std::string header = this->bytes();
    EXPECT_EQ(header, this->headerLine() + "\n");
}

TYPED_TEST(JournalContract, ResumeCutsTheTornTailAndEndsAnOpenLine)
{
    std::string clean = this->writeSample();
    std::string record = this->line(this->records()[0]);
    // A torn fragment is cut; a complete final record that lost its
    // '\n' is ended, so the next append lands on a line of its own.
    for (const std::string &text :
         {clean + record.substr(0, record.size() / 2),
          clean.substr(0, clean.size() - 1)}) {
        this->overwrite(text);
        {
            journal::Writer<TypeParam> writer;
            std::size_t replayed = 0;
            ASSERT_TRUE(this->resume(writer, replayed).ok());
            EXPECT_EQ(replayed, this->records().size());
            EXPECT_EQ(this->bytes(), clean);
            ASSERT_TRUE(writer.add(this->records()[0]).ok());
        }
        auto contents = journal::read<TypeParam>(this->path());
        ASSERT_TRUE(contents.ok()) << contents.error().message();
        EXPECT_FALSE(contents->tornTail);
        EXPECT_EQ(contents->records.size(), this->records().size() + 1);
        EXPECT_EQ(this->bytes(), clean + record + "\n");
    }
}

} // namespace
} // namespace ruu
