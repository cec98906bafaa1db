// WAL torture tests: exact ByteSize pins on every record codec, segment
// round-trips through WalWriter/ReadWal, a corruption table in the spirit of
// tests/net/frame_test.cc (torn tails, flipped bits, lsn discontinuities,
// broken headers), rotation/truncation/reopen lsn bookkeeping, and the
// service-level crash story: truncate the log at every point and replaying
// against the last checkpoint must equal having applied exactly the
// surviving prefix of mutations.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/wal.h"
#include "core/cloud_server.h"
#include "core/data_owner.h"
#include "core/ppanns_service.h"
#include "core/query_client.h"
#include "core/wal_records.h"
#include "datagen/synthetic.h"

namespace ppanns {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMagic = 0x5050574C;  // "PPWL"
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;

/// A WAL directory under the system temp dir, wiped on entry and exit.
struct ScopedDir {
  explicit ScopedDir(const std::string& name)
      : path((fs::temp_directory_path() / ("ppanns_" + name)).string()) {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::vector<std::uint8_t> RandomPayload(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  return out;
}

std::vector<std::uint8_t> SegmentHeader(std::uint64_t start_lsn,
                                        std::uint32_t magic = kMagic,
                                        std::uint32_t version = 1) {
  BinaryWriter w;
  w.Put<std::uint32_t>(magic);
  w.Put<std::uint32_t>(version);
  w.Put<std::uint64_t>(start_lsn);
  return w.TakeBuffer();
}

/// One framed record, exactly as WalWriter lays it down.
std::vector<std::uint8_t> Frame(WalRecordType type, std::uint64_t lsn,
                                const std::vector<std::uint8_t>& payload) {
  BinaryWriter body;
  body.Put<std::uint8_t>(static_cast<std::uint8_t>(type));
  body.Put<std::uint64_t>(lsn);
  body.PutBytes(payload.data(), payload.size());
  BinaryWriter frame;
  frame.Put<std::uint32_t>(
      static_cast<std::uint32_t>(body.buffer().size()));
  frame.Put<std::uint32_t>(Crc32(body.buffer().data(), body.buffer().size()));
  frame.PutBytes(body.buffer().data(), body.buffer().size());
  return frame.TakeBuffer();
}

std::string SegmentPath(const std::string& dir, std::uint64_t start_lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%016llx.log",
                static_cast<unsigned long long>(start_lsn));
  return (fs::path(dir) / buf).string();
}

void WriteSegment(const std::string& dir, std::uint64_t start_lsn,
                  const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  ASSERT_TRUE(WriteFile(SegmentPath(dir, start_lsn), bytes).ok());
}

std::vector<std::uint8_t> Concat(
    std::initializer_list<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

EncryptedVector MakeInsertVector(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  EncryptedVector ev;
  ev.sap.resize(dim);
  for (auto& x : ev.sap) x = static_cast<float>(rng.Gaussian());
  ev.dce.block = 2 * ((dim + 1) / 2 * 2) + 16;
  ev.dce.data.resize(4 * ev.dce.block);
  for (auto& x : ev.dce.data) x = rng.Gaussian();
  return ev;
}

// ---------------------------------------------------------------------------
// Codec layer: every record type round-trips with exact ByteSize.

TEST(WalTest, InsertCodecRoundTripsWithExactByteSize) {
  const EncryptedVector ev = MakeInsertVector(16, 101);
  const std::vector<std::uint8_t> payload = EncodeWalInsert(ev);
  EXPECT_EQ(payload.size(), WalInsertByteSize(ev));

  auto back = DecodeWalInsert(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->sap, ev.sap);
  EXPECT_EQ(back->dce.block, ev.dce.block);
  EXPECT_EQ(back->dce.data, ev.dce.data);
}

TEST(WalTest, RemoveCodecRoundTripsWithExactByteSize) {
  const std::vector<std::uint8_t> payload = EncodeWalRemove(VectorId{12345});
  EXPECT_EQ(payload.size(), WalRemoveByteSize());
  auto back = DecodeWalRemove(payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, 12345u);
}

TEST(WalTest, CodecsRejectTruncationAndTrailingBytes) {
  const EncryptedVector ev = MakeInsertVector(8, 103);
  const std::vector<std::uint8_t> payload = EncodeWalInsert(ev);

  // Every proper prefix must fail to decode — never crash, never succeed.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> torn(payload.begin(),
                                         payload.begin() + cut);
    EXPECT_FALSE(DecodeWalInsert(torn).ok()) << "cut at " << cut;
  }
  // Trailing garbage is a framing error, not silently ignored.
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_EQ(DecodeWalInsert(padded).status().code(), Status::Code::kIOError);

  EXPECT_FALSE(DecodeWalRemove({}).ok());
  EXPECT_FALSE(DecodeWalRemove({1, 2, 3}).ok());
  std::vector<std::uint8_t> long_remove = EncodeWalRemove(7);
  long_remove.push_back(0);
  EXPECT_EQ(DecodeWalRemove(long_remove).status().code(),
            Status::Code::kIOError);
  // A u64 id that cannot be a VectorId is rejected, not wrapped.
  EXPECT_EQ(DecodeWalRemove(
                {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
                .status()
                .code(),
            Status::Code::kIOError);
}

// ---------------------------------------------------------------------------
// Segment layer: writer/reader round-trips and exact on-disk sizes.

TEST(WalTest, WriterRoundTripsRecordsWithExactFileSize) {
  ScopedDir dir("wal_roundtrip");
  Rng rng(0xA1);
  auto writer = WalWriter::Open(dir.path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  std::vector<std::vector<std::uint8_t>> payloads;
  std::size_t expect_bytes = kHeaderBytes;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto type = (i % 3 == 2) ? WalRecordType::kRemove
                                   : WalRecordType::kInsert;
    payloads.push_back(RandomPayload(1 + 7 * i, rng));
    auto lsn = writer->Append(type, payloads.back());
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(*lsn, i);  // lsns are dense from 0
    expect_bytes += WalRecordByteSize(payloads.back().size());
  }

  const WalStats stats = writer->Stats();
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.bytes, expect_bytes);  // the ByteSize pin, on disk
  EXPECT_EQ(stats.next_lsn, 8u);

  auto records = ReadWal(dir.path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ((*records)[i].lsn, i);
    EXPECT_EQ((*records)[i].payload, payloads[i]);
    EXPECT_EQ((*records)[i].type, (i % 3 == 2) ? WalRecordType::kRemove
                                               : WalRecordType::kInsert);
  }
}

TEST(WalTest, ReopenRecoversLsnAndNeverAppendsToOldSegments) {
  ScopedDir dir("wal_reopen");
  Rng rng(0xA2);
  {
    auto writer = WalWriter::Open(dir.path);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          writer->Append(WalRecordType::kInsert, RandomPayload(9, rng)).ok());
    }
  }
  auto reopened = WalWriter::Open(dir.path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->next_lsn(), 3u);
  // The reopened writer started a fresh segment (the old tail may be torn),
  // so the directory now holds the original plus the new one.
  EXPECT_EQ(reopened->Stats().segments, 2u);
  ASSERT_TRUE(
      reopened->Append(WalRecordType::kRemove, EncodeWalRemove(1)).ok());

  auto records = ReadWal(dir.path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ((*records)[i].lsn, i);
}

TEST(WalTest, RotationBoundsSegmentsAndReplaySpansThem) {
  ScopedDir dir("wal_rotate");
  Rng rng(0xA3);
  // Tiny bound: every ~one record trips the rotation check.
  auto writer = WalWriter::Open(dir.path, WalOptions{.segment_bytes = 48});
  ASSERT_TRUE(writer.ok());
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < 10; ++i) {
    payloads.push_back(RandomPayload(24, rng));
    ASSERT_TRUE(writer->Append(WalRecordType::kInsert, payloads.back()).ok());
  }
  EXPECT_GE(writer->Stats().segments, 10u);  // bounded => many small files

  auto records = ReadWal(dir.path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*records)[i].lsn, i);
    EXPECT_EQ((*records)[i].payload, payloads[i]);
  }
}

TEST(WalTest, TruncateDeletesHistoryButPreservesLsn) {
  ScopedDir dir("wal_truncate");
  Rng rng(0xA4);
  auto writer = WalWriter::Open(dir.path);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        writer->Append(WalRecordType::kInsert, RandomPayload(11, rng)).ok());
  }
  ASSERT_TRUE(writer->Truncate().ok());

  EXPECT_EQ(writer->next_lsn(), 5u);  // the lsn clock never rewinds
  auto empty = ReadWal(dir.path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  const WalStats stats = writer->Stats();
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.bytes, kHeaderBytes);  // just the fresh header

  // Post-checkpoint appends pick up where the clock left off.
  auto lsn = writer->Append(WalRecordType::kRemove, EncodeWalRemove(2));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 5u);
  auto records = ReadWal(dir.path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].lsn, 5u);
}

TEST(WalTest, MissingDirectoryReplaysEmpty) {
  ScopedDir dir("wal_missing");
  auto records = ReadWal(dir.path);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
  auto stats = ReadWalStats(dir.path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->segments, 0u);
  EXPECT_EQ(stats->next_lsn, 0u);
}

// ---------------------------------------------------------------------------
// Corruption: the frame_test.cc-style table. Tail damage of any kind ends
// replay *cleanly* with the intact prefix; only an unusable first segment is
// an error.

TEST(WalTest, TornTailStopsCleanlyAtEveryCut) {
  Rng rng(0xB1);
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < 4; ++i) {
    payloads.push_back(RandomPayload(5 + 3 * i, rng));
    frames.push_back(Frame(WalRecordType::kInsert, i, payloads[i]));
  }
  const std::vector<std::uint8_t> full = Concat(
      {SegmentHeader(0), frames[0], frames[1], frames[2], frames[3]});

  // Record i ends at this byte offset; a cut below it loses the record.
  std::vector<std::size_t> ends;
  std::size_t off = kHeaderBytes;
  for (const auto& f : frames) ends.push_back(off += f.size());

  for (std::size_t cut = kHeaderBytes; cut <= full.size(); ++cut) {
    ScopedDir dir("wal_cut");
    WriteSegment(dir.path, 0, {full.begin(), full.begin() + cut});
    auto records = ReadWal(dir.path);
    ASSERT_TRUE(records.ok()) << "cut at " << cut << ": "
                              << records.status().ToString();
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(records->size(), expect) << "cut at " << cut;
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_EQ((*records)[i].payload, payloads[i]);
    }
  }
}

TEST(WalTest, CorruptionTableEndsReplayAtTheDamage) {
  Rng rng(0xB2);
  const std::vector<std::uint8_t> p0 = RandomPayload(12, rng);
  const std::vector<std::uint8_t> p1 = RandomPayload(12, rng);
  const std::vector<std::uint8_t> p2 = RandomPayload(12, rng);

  struct Case {
    const char* name;
    std::vector<std::uint8_t> bytes;  // first (only) segment
    std::size_t want_records;         // surviving prefix
  };
  // A frame whose body carries the wrong lsn (discontinuity inside a
  // segment), and one whose crc no longer matches its body.
  std::vector<std::uint8_t> flipped = Frame(WalRecordType::kInsert, 1, p1);
  flipped[8 + 3] ^= 0x40;  // a body byte, past the len/crc framing
  std::vector<std::uint8_t> oversized = Frame(WalRecordType::kInsert, 1, p1);
  oversized[0] = 0xFF;  // len now exceeds the remaining bytes
  const Case kCases[] = {
      {"lsn_discontinuity",
       Concat({SegmentHeader(0), Frame(WalRecordType::kInsert, 0, p0),
               Frame(WalRecordType::kInsert, 5, p1)}),
       1},
      {"crc_mismatch",
       Concat({SegmentHeader(0), Frame(WalRecordType::kInsert, 0, p0),
               flipped, Frame(WalRecordType::kInsert, 2, p2)}),
       1},
      {"len_overruns_file",
       Concat({SegmentHeader(0), Frame(WalRecordType::kInsert, 0, p0),
               oversized}),
       1},
      {"len_below_minimum",
       Concat({SegmentHeader(0), Frame(WalRecordType::kInsert, 0, p0),
               {4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4}}),
       1},
      {"start_lsn_nonzero_is_fine",
       Concat({SegmentHeader(40), Frame(WalRecordType::kInsert, 40, p0),
               Frame(WalRecordType::kInsert, 41, p1)}),
       2},
  };
  for (const Case& c : kCases) {
    ScopedDir dir(std::string("wal_corrupt_") + c.name);
    // Name the file by its header's start lsn so listing stays consistent.
    const std::uint64_t start =
        (std::string(c.name) == "start_lsn_nonzero_is_fine") ? 40 : 0;
    WriteSegment(dir.path, start, c.bytes);
    auto records = ReadWal(dir.path);
    ASSERT_TRUE(records.ok()) << c.name << ": " << records.status().ToString();
    EXPECT_EQ(records->size(), c.want_records) << c.name;
  }
}

TEST(WalTest, BrokenFirstSegmentHeaderIsAnError) {
  Rng rng(0xB3);
  const std::vector<std::uint8_t> p0 = RandomPayload(8, rng);
  {
    ScopedDir dir("wal_badmagic");
    WriteSegment(dir.path, 0,
                 Concat({SegmentHeader(0, /*magic=*/0x46464646),
                         Frame(WalRecordType::kInsert, 0, p0)}));
    EXPECT_EQ(ReadWal(dir.path).status().code(), Status::Code::kIOError);
  }
  {
    ScopedDir dir("wal_badversion");
    WriteSegment(dir.path, 0,
                 Concat({SegmentHeader(0, kMagic, /*version=*/9),
                         Frame(WalRecordType::kInsert, 0, p0)}));
    EXPECT_EQ(ReadWal(dir.path).status().code(), Status::Code::kIOError);
  }
  {
    ScopedDir dir("wal_shortheader");
    WriteSegment(dir.path, 0, {0x4C, 0x57});
    EXPECT_EQ(ReadWal(dir.path).status().code(), Status::Code::kIOError);
  }
}

TEST(WalTest, LaterSegmentDamageIsACleanStop) {
  Rng rng(0xB4);
  const std::vector<std::uint8_t> p0 = RandomPayload(8, rng);
  const std::vector<std::uint8_t> p1 = RandomPayload(8, rng);
  {
    // Second segment's header is torn: replay keeps the first segment.
    ScopedDir dir("wal_torn_second");
    WriteSegment(dir.path, 0,
                 Concat({SegmentHeader(0),
                         Frame(WalRecordType::kInsert, 0, p0)}));
    WriteSegment(dir.path, 1, {0xDE, 0xAD});
    auto records = ReadWal(dir.path);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), 1u);
    EXPECT_EQ((*records)[0].payload, p0);
  }
  {
    // A lost middle segment is an lsn gap: replay stops before the gap.
    ScopedDir dir("wal_gap");
    WriteSegment(dir.path, 0,
                 Concat({SegmentHeader(0),
                         Frame(WalRecordType::kInsert, 0, p0)}));
    WriteSegment(dir.path, 5,
                 Concat({SegmentHeader(5),
                         Frame(WalRecordType::kInsert, 5, p1)}));
    auto records = ReadWal(dir.path);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 1u);
    EXPECT_EQ((*records)[0].lsn, 0u);
  }
}

TEST(WalTest, RandomBytesNeverCrashReplay) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 200; ++trial) {
    ScopedDir dir("wal_fuzz");
    const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 200));
    std::vector<std::uint8_t> bytes = RandomPayload(n, rng);
    // Half the trials start from a valid header so the fuzz reaches the
    // record scanner instead of dying at the magic check.
    if (trial % 2 == 0) {
      bytes = Concat({SegmentHeader(0), bytes});
    }
    WriteSegment(dir.path, 0, bytes);
    auto records = ReadWal(dir.path);  // any status; must not crash
    if (records.ok() && !records->empty()) {
      EXPECT_EQ(records->front().lsn, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Service layer: append-before-apply, checkpoint + log recovery, and the
// crash-point sweep — replaying a log truncated after k records must equal
// having applied exactly the first k mutations.

constexpr std::size_t kDim = 16;

struct WalSystem {
  Dataset dataset;
  std::unique_ptr<DataOwner> owner;
  std::unique_ptr<QueryClient> client;
  std::vector<std::uint8_t> base_bytes;  // serialized pre-mutation package
};

WalSystem BuildWalSystem(std::size_t n, std::uint64_t seed) {
  WalSystem sys;
  sys.dataset = MakeDataset(SyntheticKind::kGloveLike, n, 8, 0, seed, kDim);
  PpannsParams params;
  params.dcpe_beta = 0.0;
  params.dce_scale_hint = 4.0;
  params.index_kind = IndexKind::kHnsw;
  params.hnsw = HnswParams{.m = 8, .ef_construction = 60, .seed = seed};
  params.seed = seed;
  auto owner = DataOwner::Create(kDim, params);
  PPANNS_CHECK(owner.ok());
  sys.owner = std::make_unique<DataOwner>(std::move(*owner));
  sys.client = std::make_unique<QueryClient>(sys.owner->ShareKeys(), seed + 1);
  BinaryWriter w;
  sys.owner->EncryptAndIndex(sys.dataset.base).Serialize(&w);
  sys.base_bytes = w.TakeBuffer();
  return sys;
}

/// Loads a fresh service from the serialized base package. Two services
/// loaded from the same bytes are in identical states — including the HNSW
/// level stream, which restarts from the serialized graph rather than being
/// persisted — so applying the same mutations to both yields identical
/// graphs. The crash-replay equivalence below rests on exactly this.
PpannsService LoadService(const std::vector<std::uint8_t>& bytes) {
  BinaryReader r(bytes);
  auto db = ShardedEncryptedDatabase::Deserialize(&r);
  PPANNS_CHECK(db.ok());
  return PpannsService{ShardedCloudServer(std::move(*db))};
}

struct Op {
  bool is_insert = false;
  EncryptedVector ev;  // insert payload
  VectorId id = 0;     // delete target
};

std::vector<Op> MakeOps(WalSystem& sys, std::size_t n) {
  std::vector<Op> ops;
  // Interleave inserts (re-encrypted query rows — any vector works, the ops
  // just need to be identical across services) with deletes of base ids.
  for (std::size_t i = 0; i < 6; ++i) {
    Op ins;
    ins.is_insert = true;
    ins.ev = sys.owner->EncryptOne(sys.dataset.queries.row(i % 8));
    ops.push_back(std::move(ins));
    Op del;
    del.id = static_cast<VectorId>((7 * i + 3) % n);
    ops.push_back(del);
  }
  return ops;
}

void ApplyOps(PpannsService& service, const std::vector<Op>& ops,
              std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (ops[i].is_insert) {
      ASSERT_TRUE(service.Insert(ops[i].ev).ok());
    } else {
      ASSERT_TRUE(service.Delete(ops[i].id).ok());
    }
  }
}

void ExpectSameSearchResults(const WalSystem& sys, const PpannsService& a,
                             const PpannsService& b) {
  ASSERT_EQ(a.size(), b.size());
  const SearchSettings settings{.k_prime = 40, .ef_search = 80};
  for (std::size_t qi = 0; qi < 4; ++qi) {
    QueryToken token = sys.client->EncryptQuery(sys.dataset.queries.row(qi));
    auto ra = a.Search(token, 10, settings);
    auto rb = b.Search(token, 10, settings);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->ids, rb->ids) << "query " << qi;
  }
}

TEST(WalServiceTest, CrashPointReplayEqualsApplyingTheSurvivingPrefix) {
  WalSystem sys = BuildWalSystem(160, 61);
  const std::vector<Op> ops = MakeOps(sys, 160);

  // The "original run": every op goes through the attached WAL.
  ScopedDir dir("wal_crash_sweep");
  PpannsService origin = LoadService(sys.base_bytes);
  ASSERT_TRUE(origin.AttachWal(dir.path).ok());
  {
    // Re-run ApplyOps inline so gtest assertions propagate.
    PpannsService& service = origin;
    ApplyOps(service, ops, ops.size());
  }
  ASSERT_EQ(origin.wal_stats().next_lsn, ops.size());

  // The log lives in one segment; find each record's end offset.
  auto segment = ReadFile(SegmentPath(dir.path, 0));
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  std::vector<std::size_t> ends;  // ends[k] = bytes holding k+1 records
  {
    std::size_t off = kHeaderBytes;
    for (const Op& op : ops) {
      const std::size_t payload = op.is_insert
                                      ? WalInsertByteSize(op.ev)
                                      : WalRemoveByteSize();
      ends.push_back(off += WalRecordByteSize(payload));
    }
    ASSERT_EQ(ends.back(), segment->size());  // the ByteSize pin again
  }

  // Crash after k records (+ a mid-record tear that rounds down to k).
  for (std::size_t k = 0; k <= ops.size(); ++k) {
    std::size_t cut = (k == 0) ? kHeaderBytes : ends[k - 1];
    if (k < ops.size()) cut += 3;  // tear into the next record's framing
    ScopedDir crash_dir("wal_crash_point");
    WriteSegment(crash_dir.path, 0, {segment->begin(), segment->begin() + cut});

    PpannsService revived = LoadService(sys.base_bytes);
    auto applied = revived.ReplayWal(crash_dir.path);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(*applied, k) << "crash point " << k;

    PpannsService expected = LoadService(sys.base_bytes);
    ApplyOps(expected, ops, k);
    ExpectSameSearchResults(sys, expected, revived);
  }
}

TEST(WalServiceTest, CheckpointTruncatesLogAndRecoveryContinuesFromIt) {
  WalSystem sys = BuildWalSystem(160, 67);
  const std::vector<Op> ops = MakeOps(sys, 160);

  ScopedDir dir("wal_checkpoint");
  ScopedDir snap_dir("wal_snapshot");
  fs::create_directories(snap_dir.path);
  const std::string snap = (fs::path(snap_dir.path) / "ckpt.ppanns").string();

  PpannsService origin = LoadService(sys.base_bytes);
  ASSERT_TRUE(origin.AttachWal(dir.path).ok());
  ApplyOps(origin, ops, 6);
  ASSERT_GT(origin.wal_stats().bytes, kHeaderBytes);

  ASSERT_TRUE(origin.Checkpoint(snap).ok());
  EXPECT_TRUE(FileExists(snap));
  EXPECT_FALSE(FileExists(snap + ".tmp"));  // temp renamed away
  const WalStats after = origin.wal_stats();
  EXPECT_EQ(after.segments, 1u);
  EXPECT_EQ(after.bytes, kHeaderBytes);  // log truncated
  EXPECT_EQ(after.next_lsn, 6u);         // the lsn clock never rewinds

  // More mutations land in the post-checkpoint log...
  ApplyOps(origin, {ops.begin() + 6, ops.end()}, ops.size() - 6);

  // ...and a crashed process recovers as checkpoint + surviving log.
  auto snap_bytes = ReadFile(snap);
  ASSERT_TRUE(snap_bytes.ok());
  PpannsService revived = LoadService(*snap_bytes);
  auto applied = revived.ReplayWal(dir.path);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, ops.size() - 6);
  ExpectSameSearchResults(sys, origin, revived);
}

TEST(WalServiceTest, ReplayToleratesLoggedDeletesThatFailedOriginally) {
  WalSystem sys = BuildWalSystem(120, 71);
  ScopedDir dir("wal_failed_delete");

  PpannsService origin = LoadService(sys.base_bytes);
  ASSERT_TRUE(origin.AttachWal(dir.path).ok());
  ASSERT_TRUE(origin.Delete(9).ok());
  // Append-before-apply: the rejected double delete is in the log anyway.
  EXPECT_EQ(origin.Delete(9).code(), Status::Code::kNotFound);
  EXPECT_EQ(origin.wal_stats().next_lsn, 2u);

  PpannsService revived = LoadService(sys.base_bytes);
  auto applied = revived.ReplayWal(dir.path);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 2u);  // both records processed; the rerejection is ok
  EXPECT_EQ(revived.size(), origin.size());
}

TEST(WalServiceTest, ShardedReplayRoutesInsertsIdentically) {
  // Insert routing (least-loaded shard, ties to the lowest id) is
  // deterministic, so replaying the log against the same base package must
  // land every insert on the same (shard, local) slot.
  const std::size_t n = 120;
  Dataset ds = MakeDataset(SyntheticKind::kGloveLike, n, 8, 0, 73, kDim);
  PpannsParams params;
  params.dcpe_beta = 0.0;
  params.dce_scale_hint = 4.0;
  params.index_kind = IndexKind::kBruteForce;
  params.num_shards = 4;
  params.seed = 73;
  auto owner = DataOwner::Create(kDim, params);
  ASSERT_TRUE(owner.ok());
  BinaryWriter w;
  owner->EncryptAndIndexSharded(ds.base).Serialize(&w);
  const std::vector<std::uint8_t> base = w.TakeBuffer();

  auto load = [&base] {
    BinaryReader r(base);
    auto db = ShardedEncryptedDatabase::Deserialize(&r);
    PPANNS_CHECK(db.ok());
    return PpannsService{ShardedCloudServer(std::move(*db))};
  };

  ScopedDir dir("wal_sharded");
  PpannsService origin = load();
  ASSERT_TRUE(origin.AttachWal(dir.path).ok());
  for (VectorId id : {3u, 7u, 11u, 15u, 19u}) {
    ASSERT_TRUE(origin.Delete(id).ok());
  }
  for (std::size_t i = 0; i < 5; ++i) {
    auto id = origin.Insert(owner->EncryptOne(ds.queries.row(i)));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, n + i);
  }

  PpannsService revived = load();
  auto applied = revived.ReplayWal(dir.path);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 10u);

  const ShardManifest& ma = origin.sharded_server().manifest();
  const ShardManifest& mb = revived.sharded_server().manifest();
  ASSERT_EQ(ma.size(), mb.size());
  for (VectorId g = 0; g < ma.size(); ++g) {
    EXPECT_EQ(ma.at(g).shard, mb.at(g).shard) << "global id " << g;
    EXPECT_EQ(ma.at(g).local, mb.at(g).local) << "global id " << g;
  }

  QueryClient client(owner->ShareKeys(), 79);
  for (std::size_t qi = 0; qi < 4; ++qi) {
    QueryToken token = client.EncryptQuery(ds.queries.row(qi));
    auto ra = origin.Search(token, 10, SearchSettings{.k_prime = 40});
    auto rb = revived.Search(token, 10, SearchSettings{.k_prime = 40});
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->ids, rb->ids);
  }
}

}  // namespace
}  // namespace ppanns
