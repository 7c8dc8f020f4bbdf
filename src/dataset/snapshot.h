// Columnar shard storage and its binary snapshot wire format (DESIGN.md
// §14).
//
// TimelineColumns holds one *shard* of page timelines as struct-of-arrays:
// hostnames and issuers become per-shard symbol ids, every timestamp, enum
// and flag is one row in a column, and DNS answer sets flatten into a
// shared pool indexed by per-entry counts. Each column is a util::ByteWriter
// of native little-endian rows; clear() keeps every column's capacity, so a
// pipeline that reuses one TimelineColumns across shards stops allocating
// once its largest shard has been seen.
//
// A snapshot is one TimelineColumns shard, encoded so that a reader can
// stream pages back with zero copies of the column payloads: a fixed
// header, a length-prefixed symbol table, then every column as a
// (tag, byte-length, payload) record in one canonical order. All header
// and framing integers are big-endian through util::ByteWriter/ByteReader
// (the repo's audited bounded codec); column payloads are the raw
// little-endian rows copied whole out of the columns, guarded by an
// endianness sentinel in the header. The ColumnTag enum and kColumnSpecs
// below are the format's one list of columns.
//
// The reader is total in the fuzzing sense: SnapshotReader::open()
// validates framing, symbol references, enum ranges, flag masks, and
// row-count cross-sums before returning, never throws, never reads out of
// bounds (every access goes through the span-bounded ByteReader or a
// memcpy inside a validated column span), and rejects trailing bytes — so
// next_page() after a successful open() is infallible, and an accepted
// snapshot re-encodes to the identical byte string (canonical form).
//
// Format v2 (DESIGN.md §15) appends a CRC-64/XZ footer — 4-byte magic
// "OCSF" plus the big-endian CRC of everything before it — which open()
// verifies before parsing a single header byte. A torn or bit-flipped
// shard file is therefore detected up front and surfaces as a Result
// error ("checksum mismatch"), never as silently wrong timeline data; the
// streaming pipeline quarantines such shards and regenerates them from
// their site range (dataset/corpus.h).
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/bytes.h"
#include "util/interner.h"
#include "util/result.h"
#include "web/har.h"

namespace origin::dataset {

// Format constants, shared by writer, reader, and the fuzz driver.
inline constexpr char kSnapshotMagic[4] = {'O', 'C', 'S', '1'};
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::uint8_t kSnapshotLittleEndianPayload = 1;
inline constexpr std::size_t kSnapshotMaxSymbolBytes = 4'096;

// Integrity footer (v2): magic + big-endian CRC-64/XZ over every byte that
// precedes the footer. Verified before any header parsing.
inline constexpr char kSnapshotFooterMagic[4] = {'O', 'C', 'S', 'F'};
inline constexpr std::size_t kSnapshotFooterBytes = 12;

// Entry flag bits (the packed bool column). Any bit outside the mask makes
// a snapshot invalid.
inline constexpr std::uint8_t kSnapshotFlagSecure = 1u << 0;
inline constexpr std::uint8_t kSnapshotFlagNewDns = 1u << 1;
inline constexpr std::uint8_t kSnapshotFlagNewTls = 1u << 2;
inline constexpr std::uint8_t kSnapshotFlagSpeculative = 1u << 3;
inline constexpr std::uint8_t kSnapshotFlagStatus421 = 1u << 4;
inline constexpr std::uint8_t kSnapshotFlagMask = 0x1F;

// Shard identity and row totals, carried in the snapshot header.
struct ShardMeta {
  std::uint64_t shard_index = 0;
  std::uint64_t corpus_seed = 0;
  std::uint64_t first_site = 0;  // first eligible-site ordinal in the shard
  std::uint64_t pages = 0;
  std::uint64_t entries = 0;
  std::uint64_t answers = 0;   // flattened DNS answer-set rows
  std::uint32_t symbols = 0;

  bool operator==(const ShardMeta&) const = default;
};

// Column tags, in wire order. The reader rejects any other order, which is
// what makes an accepted snapshot canonical.
enum ColumnTag : std::size_t {
  kEntryResourceIndex = 0,
  kEntryHostSym,
  kEntryAddrFamily,
  kEntryAddrValue,
  kEntryAnswerCount,
  kEntryAsn,
  kEntryVersion,
  kEntryMode,
  kEntryContentType,
  kEntryFlags,
  kEntryStartUs,
  kEntryBlockedUs,
  kEntryDnsUs,
  kEntryConnectUs,
  kEntrySslUs,
  kEntrySendUs,
  kEntryWaitUs,
  kEntryReceiveUs,
  kEntryConnectionId,
  kEntryCertSerial,
  kEntryIssuerSym,
  kEntrySanCount,
  kAnswerFamily,
  kAnswerValue,
  kPageRank,
  kPageBaseSym,
  kPageSuccess,
  kPageEntryCount,
  kPageExtraDns,
  kPageExtraTls,
};

// Per tag: the row width in bytes and the ShardMeta total that counts the
// column's rows (one row per entry, per DNS answer, or per page).
struct ColumnSpec {
  std::size_t elem_size;
  std::uint64_t ShardMeta::*rows;
};

inline constexpr ColumnSpec kColumnSpecs[] = {
    {4, &ShardMeta::entries},  // resource_index  i32
    {4, &ShardMeta::entries},  // host_sym        u32
    {1, &ShardMeta::entries},  // addr_family     u8
    {8, &ShardMeta::entries},  // addr_value      u64
    {2, &ShardMeta::entries},  // answer_count    u16
    {4, &ShardMeta::entries},  // asn             u32
    {1, &ShardMeta::entries},  // version         u8
    {1, &ShardMeta::entries},  // mode            u8
    {1, &ShardMeta::entries},  // content_type    u8
    {1, &ShardMeta::entries},  // flags           u8
    {8, &ShardMeta::entries},  // start_us        i64
    {8, &ShardMeta::entries},  // blocked_us      i64
    {8, &ShardMeta::entries},  // dns_us          i64
    {8, &ShardMeta::entries},  // connect_us      i64
    {8, &ShardMeta::entries},  // ssl_us          i64
    {8, &ShardMeta::entries},  // send_us         i64
    {8, &ShardMeta::entries},  // wait_us         i64
    {8, &ShardMeta::entries},  // receive_us      i64
    {8, &ShardMeta::entries},  // connection_id   u64
    {8, &ShardMeta::entries},  // cert_serial     u64
    {4, &ShardMeta::entries},  // issuer_sym      u32
    {8, &ShardMeta::entries},  // san_count       i64
    {1, &ShardMeta::answers},  // answer_family   u8
    {8, &ShardMeta::answers},  // answer_value    u64
    {8, &ShardMeta::pages},    // rank            u64
    {4, &ShardMeta::pages},    // base_sym        u32
    {1, &ShardMeta::pages},    // success         u8
    {4, &ShardMeta::pages},    // entry_count     u32
    {8, &ShardMeta::pages},    // extra_dns       u64
    {8, &ShardMeta::pages},    // extra_tls       u64
};
inline constexpr std::size_t kSnapshotColumnCount = std::size(kColumnSpecs);
static_assert(kSnapshotColumnCount == kPageExtraTls + 1, "one spec per tag");

// Compile-time guard for every typed row access: a value read from or
// written to column `tag` must be an arithmetic type of the table's width.
template <ColumnTag tag, typename T>
constexpr bool kFitsColumn =
    std::is_arithmetic_v<T> && sizeof(T) == kColumnSpecs[tag].elem_size;

// One shard of page timelines in columnar form. Append-only between
// clear() calls; not thread-safe (owned by the serial shard-append loop).
class TimelineColumns {
 public:
  void set_identity(std::uint64_t shard_index, std::uint64_t corpus_seed,
                    std::uint64_t first_site);
  void append_page(const web::PageLoad& load);
  void clear();  // drops rows + symbols, keeps every column's capacity

  ShardMeta meta() const;
  std::size_t page_count() const { return rows(kPageRank); }
  std::size_t entry_count() const { return rows(kEntryStartUs); }

 private:
  friend util::Bytes encode_snapshot(const TimelineColumns& columns);

  // Appends one row to column `tag` as its native little-endian bytes.
  template <ColumnTag tag, typename T>
  void put(T value) {
    static_assert(kFitsColumn<tag, T>, "value does not match column width");
    columns_[tag].raw(&value, sizeof(T));
  }
  std::size_t rows(ColumnTag tag) const {
    return columns_[tag].size() / kColumnSpecs[tag].elem_size;
  }

  // The ORIGIN_HOT numeric row appends; symbol interning stays in the
  // (cold, allocating) append_page wrapper.
  void append_entry_row(const web::HarEntry& entry, std::uint32_t host_sym,
                        std::uint32_t issuer_sym);
  void append_page_row(const web::PageLoad& load, std::uint32_t base_sym);

  std::array<util::ByteWriter, kSnapshotColumnCount> columns_;
  // Per-shard symbol table: id = first-appearance order.
  util::Interner symbols_;

  std::uint64_t shard_index_ = 0;
  std::uint64_t corpus_seed_ = 0;
  std::uint64_t first_site_ = 0;
};

// Serializes the shard. The byte string is canonical: symbols appear in
// first-appearance (id) order and columns in fixed tag order, so
// encode(decode(encode(x))) == encode(x).
util::Bytes encode_snapshot(const TimelineColumns& columns);

// Streaming decoder over an encoded snapshot. Non-owning: `bytes` must
// outlive the reader (shard buffers / mapped files stay alive for exactly
// one shard in the pipeline).
class SnapshotReader {
 public:
  [[nodiscard]] static util::Result<SnapshotReader> open(
      std::span<const std::uint8_t> bytes);

  const ShardMeta& meta() const { return meta_; }

  // Materializes the next page into `out` (reusing its capacity where the
  // standard library allows). Returns false once all pages are consumed.
  bool next_page(web::PageLoad* out);
  void rewind();
  std::size_t pages_read() const { return page_cursor_; }

 private:
  SnapshotReader() = default;

  // Typed access into a validated column span. Index bounds were checked
  // against meta_ row counts at open(), so these are pure loads.
  template <ColumnTag tag, typename T>
  T column(std::size_t row) const;

  ShardMeta meta_;
  std::vector<std::string> symbols_;
  // One validated payload span per column tag, in tag order.
  std::array<std::span<const std::uint8_t>, kSnapshotColumnCount> columns_;

  std::size_t page_cursor_ = 0;
  std::size_t entry_cursor_ = 0;
  std::size_t answer_cursor_ = 0;
};

// Shard file IO. Paths name regular files inside the pipeline's spill
// directory; all are total (errors come back as Status/Result, never
// exceptions). Writes are crash-consistent: they funnel through
// util::durable_write_file (temp → fsync → rename commit), so a killed run
// leaves either the complete shard or a swept-on-startup `.tmp`, never a
// torn `.ocs`.
[[nodiscard]] util::Status write_shard_file(
    const std::string& path, std::span<const std::uint8_t> bytes);
[[nodiscard]] util::Result<util::Bytes> read_shard_file(
    const std::string& path);
[[nodiscard]] util::Status remove_shard_file(const std::string& path);

// Shard path naming: <dir>/shard_<index 6 digits>.ocs
std::string shard_file_path(const std::string& dir, std::size_t index);

// Quarantine path for a shard whose bytes failed CRC/format validation:
// <dir>/quarantine/shard_<index 6 digits>.ocs
std::string quarantine_file_path(const std::string& dir, std::size_t index);

}  // namespace origin::dataset
