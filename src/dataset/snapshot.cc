#include "dataset/snapshot.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "util/durable_file.h"
#include "util/hash.h"
#include "util/hot_path.h"
#include "web/resource.h"

namespace origin::dataset {

namespace {

using ColumnSpans =
    std::array<std::span<const std::uint8_t>, kSnapshotColumnCount>;

// Unaligned typed load out of a validated column payload.
template <ColumnTag tag, typename T>
ORIGIN_HOT T load_at(const ColumnSpans& columns, std::size_t row) {
  static_assert(kFitsColumn<tag, T>, "value does not match column width");
  T value;
  std::memcpy(&value, columns[tag].data() + row * sizeof(T), sizeof(T));
  return value;
}

// True when every row is < limit — the one shape all range validation
// takes, since every valid domain here is a contiguous [0, limit) range.
// Row counts come from the column spans, whose lengths open() validated.
template <ColumnTag tag, typename T>
ORIGIN_HOT bool rows_below(const ColumnSpans& columns, std::uint64_t limit) {
  const std::size_t rows = columns[tag].size() / sizeof(T);
  for (std::size_t i = 0; i < rows; ++i) {
    if (load_at<tag, T>(columns, i) >= limit) return false;
  }
  return true;
}

template <ColumnTag tag, typename T>
ORIGIN_HOT std::uint64_t rows_sum(const ColumnSpans& columns) {
  const std::size_t rows = columns[tag].size() / sizeof(T);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < rows; ++i) sum += load_at<tag, T>(columns, i);
  return sum;
}

util::Error snapshot_error(const char* what) {
  // analyze:allow(hot-transitive): error messages are built only when a
  // snapshot is rejected, never in the steady-state decode loop; the hot
  // chain is a by-name match of SnapshotReader::open against an unrelated
  // open() call in the h2 server.
  return util::make_error(std::string("snapshot: ") + what);
}

}  // namespace

// --- TimelineColumns ------------------------------------------------------

void TimelineColumns::set_identity(std::uint64_t shard_index,
                                   std::uint64_t corpus_seed,
                                   std::uint64_t first_site) {
  shard_index_ = shard_index;
  corpus_seed_ = corpus_seed;
  first_site_ = first_site;
}

ORIGIN_HOT void TimelineColumns::append_page_row(const web::PageLoad& load,
                                                 std::uint32_t base_sym) {
  put<kPageRank>(load.tranco_rank);
  put<kPageBaseSym>(base_sym);
  put<kPageSuccess>(std::uint8_t{load.success});
  put<kPageEntryCount>(static_cast<std::uint32_t>(load.entries.size()));
  put<kPageExtraDns>(static_cast<std::uint64_t>(load.extra_dns_queries));
  put<kPageExtraTls>(static_cast<std::uint64_t>(load.extra_tls_connections));
}

ORIGIN_HOT void TimelineColumns::append_entry_row(const web::HarEntry& entry,
                                                  std::uint32_t host_sym,
                                                  std::uint32_t issuer_sym) {
  put<kEntryResourceIndex>(static_cast<std::int32_t>(entry.resource_index));
  put<kEntryHostSym>(host_sym);
  put<kEntryAddrFamily>(static_cast<std::uint8_t>(entry.server_address.family));
  put<kEntryAddrValue>(entry.server_address.value);
  put<kEntryAnswerCount>(
      static_cast<std::uint16_t>(entry.dns_answer_set.size()));
  put<kEntryAsn>(entry.asn);
  put<kEntryVersion>(static_cast<std::uint8_t>(entry.version));
  put<kEntryMode>(static_cast<std::uint8_t>(entry.mode));
  put<kEntryContentType>(static_cast<std::uint8_t>(entry.content_type));
  std::uint8_t flags = 0;
  if (entry.secure) flags |= kSnapshotFlagSecure;
  if (entry.new_dns_query) flags |= kSnapshotFlagNewDns;
  if (entry.new_tls_connection) flags |= kSnapshotFlagNewTls;
  if (entry.speculative_duplicate) flags |= kSnapshotFlagSpeculative;
  if (entry.status_421) flags |= kSnapshotFlagStatus421;
  put<kEntryFlags>(flags);
  put<kEntryStartUs>(entry.start.micros());
  put<kEntryBlockedUs>(entry.timings.blocked.count_micros());
  put<kEntryDnsUs>(entry.timings.dns.count_micros());
  put<kEntryConnectUs>(entry.timings.connect.count_micros());
  put<kEntrySslUs>(entry.timings.ssl.count_micros());
  put<kEntrySendUs>(entry.timings.send.count_micros());
  put<kEntryWaitUs>(entry.timings.wait.count_micros());
  put<kEntryReceiveUs>(entry.timings.receive.count_micros());
  put<kEntryConnectionId>(entry.connection_id);
  put<kEntryCertSerial>(entry.cert_serial);
  put<kEntryIssuerSym>(issuer_sym);
  put<kEntrySanCount>(entry.cert_san_count);
  for (const dns::IpAddress& address : entry.dns_answer_set) {
    put<kAnswerFamily>(static_cast<std::uint8_t>(address.family));
    put<kAnswerValue>(address.value);
  }
}

void TimelineColumns::append_page(const web::PageLoad& load) {
  append_page_row(load, symbols_.intern(load.base_hostname));
  for (const web::HarEntry& entry : load.entries) {
    append_entry_row(entry, symbols_.intern(entry.hostname),
                     symbols_.intern(entry.cert_issuer));
  }
}

void TimelineColumns::clear() {
  for (util::ByteWriter& column : columns_) column.clear();
  symbols_.clear();
}

ShardMeta TimelineColumns::meta() const {
  ShardMeta meta;
  meta.shard_index = shard_index_;
  meta.corpus_seed = corpus_seed_;
  meta.first_site = first_site_;
  for (std::size_t tag = 0; tag < kSnapshotColumnCount; ++tag) {
    meta.*kColumnSpecs[tag].rows = rows(static_cast<ColumnTag>(tag));
  }
  meta.symbols = static_cast<std::uint32_t>(symbols_.size());
  return meta;
}

// --- snapshot codec -------------------------------------------------------

util::Bytes encode_snapshot(const TimelineColumns& columns) {
  const ShardMeta meta = columns.meta();
  // Exact size (61-byte header, length-prefixed symbols, 9-byte column
  // framing, footer), so encoding costs one allocation.
  std::size_t size = 61 + kSnapshotFooterBytes;
  for (std::uint32_t i = 0; i < meta.symbols; ++i) {
    size += 4 + columns.symbols_.name(i).size();
  }
  for (const util::ByteWriter& column : columns.columns_) {
    size += 9 + column.size();
  }
  util::ByteWriter writer(size);
  writer.raw(std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic)));
  writer.u32(kSnapshotVersion);
  writer.u8(std::endian::native == std::endian::little
                ? kSnapshotLittleEndianPayload
                : kSnapshotLittleEndianPayload + 1);
  writer.u64(meta.shard_index);
  writer.u64(meta.corpus_seed);
  writer.u64(meta.first_site);
  writer.u64(meta.pages);
  writer.u64(meta.entries);
  writer.u64(meta.answers);
  writer.u32(meta.symbols);
  for (std::uint32_t i = 0; i < meta.symbols; ++i) {
    const std::string_view name = columns.symbols_.name(i);
    writer.u32(static_cast<std::uint32_t>(name.size()));
    writer.raw(name);
  }
  for (std::size_t tag = 0; tag < kSnapshotColumnCount; ++tag) {
    const util::Bytes& rows = columns.columns_[tag].bytes();
    writer.u8(static_cast<std::uint8_t>(tag));
    writer.u64(rows.size());
    writer.raw(rows);
  }
  // Integrity footer: CRC-64/XZ over every byte written so far. Appended
  // last so the file's own tail proves the whole payload intact.
  const std::uint64_t crc = util::crc64(writer.bytes());
  writer.raw(std::string_view(kSnapshotFooterMagic,
                              sizeof(kSnapshotFooterMagic)));
  writer.u64(crc);
  return writer.take();
}

util::Result<SnapshotReader> SnapshotReader::open(
    std::span<const std::uint8_t> bytes) {
  if (std::endian::native != std::endian::little) {
    return snapshot_error("big-endian hosts are not supported");
  }
  // Integrity first: the CRC footer is verified before a single header
  // byte is interpreted, so a torn or bit-flipped shard is rejected as
  // corrupt up front — its contents are never read as data.
  if (bytes.size() < kSnapshotFooterBytes) {
    return snapshot_error("missing footer");
  }
  const std::span<const std::uint8_t> payload =
      bytes.first(bytes.size() - kSnapshotFooterBytes);
  const std::span<const std::uint8_t> footer =
      bytes.last(kSnapshotFooterBytes);
  if (std::memcmp(footer.data(), kSnapshotFooterMagic,
                  sizeof(kSnapshotFooterMagic)) != 0) {
    return snapshot_error("bad footer magic (torn or trailing bytes)");
  }
  util::ByteReader footer_reader(footer.subspan(sizeof(kSnapshotFooterMagic)));
  if (footer_reader.u64() != util::crc64(payload)) {
    return snapshot_error("checksum mismatch (torn or corrupt shard)");
  }
  util::ByteReader reader(payload);
  const auto magic = reader.raw(sizeof(kSnapshotMagic));
  if (!reader.ok() ||
      std::memcmp(magic.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return snapshot_error("bad magic");
  }
  if (reader.u32() != kSnapshotVersion) {
    return snapshot_error("unsupported version");
  }
  if (reader.u8() != kSnapshotLittleEndianPayload) {
    return snapshot_error("payload endianness mismatch");
  }

  SnapshotReader out;
  out.meta_.shard_index = reader.u64();
  out.meta_.corpus_seed = reader.u64();
  out.meta_.first_site = reader.u64();
  out.meta_.pages = reader.u64();
  out.meta_.entries = reader.u64();
  out.meta_.answers = reader.u64();
  out.meta_.symbols = reader.u32();
  if (!reader.ok()) return snapshot_error("truncated header");
  // Row counts stay far below 2^32 in practice; the cap keeps the
  // rows * elem_size products away from overflow on any input.
  constexpr std::uint64_t kMaxRows = std::uint64_t{1} << 32;
  if (out.meta_.pages > kMaxRows || out.meta_.entries > kMaxRows ||
      out.meta_.answers > kMaxRows) {
    return snapshot_error("row count exceeds format limit");
  }

  // Each symbol costs at least its 4-byte length prefix: a count the
  // remaining bytes cannot hold is rejected before anything is reserved.
  if (out.meta_.symbols > reader.remaining() / 4) {
    return snapshot_error("bad symbol table");
  }
  out.symbols_.reserve(out.meta_.symbols);
  for (std::uint32_t i = 0; i < out.meta_.symbols; ++i) {
    const std::uint32_t length = reader.u32();
    if (!reader.ok() || length > kSnapshotMaxSymbolBytes) {
      return snapshot_error("bad symbol table");
    }
    out.symbols_.push_back(reader.str(length));
  }
  if (!reader.ok()) return snapshot_error("truncated symbol table");

  for (std::size_t tag = 0; tag < kSnapshotColumnCount; ++tag) {
    if (reader.u8() != tag) return snapshot_error("column order");
    const std::uint64_t byte_length = reader.u64();
    const ColumnSpec& spec = kColumnSpecs[tag];
    if (byte_length != out.meta_.*spec.rows * spec.elem_size) {
      return snapshot_error("column length mismatch");
    }
    out.columns_[tag] = reader.raw(static_cast<std::size_t>(byte_length));
  }
  if (!reader.ok()) return snapshot_error("truncated columns");
  if (!reader.at_end()) return snapshot_error("trailing bytes");

  // Semantic validation: every cross-reference and enum range is checked
  // here, once, so next_page() is infallible afterwards.
  const ColumnSpans& columns = out.columns_;
  if (rows_sum<kPageEntryCount, std::uint32_t>(columns) != out.meta_.entries) {
    return snapshot_error("page entry counts do not sum to entry rows");
  }
  if (rows_sum<kEntryAnswerCount, std::uint16_t>(columns) !=
      out.meta_.answers) {
    return snapshot_error("answer counts do not sum to answer rows");
  }
  const std::uint64_t symbols = out.meta_.symbols;
  if (!rows_below<kPageBaseSym, std::uint32_t>(columns, symbols) ||
      !rows_below<kEntryHostSym, std::uint32_t>(columns, symbols) ||
      !rows_below<kEntryIssuerSym, std::uint32_t>(columns, symbols)) {
    return snapshot_error("symbol reference out of range");
  }
  if (!rows_below<kEntryAddrFamily, std::uint8_t>(columns, 2) ||
      !rows_below<kAnswerFamily, std::uint8_t>(columns, 2)) {
    return snapshot_error("bad address family");
  }
  constexpr auto kVersions =
      static_cast<std::uint64_t>(web::HttpVersion::kUnknown) + 1;
  constexpr auto kModes =
      static_cast<std::uint64_t>(web::RequestMode::kFetchApi) + 1;
  constexpr auto kContentTypes =
      static_cast<std::uint64_t>(web::ContentType::kOther) + 1;
  if (!rows_below<kEntryVersion, std::uint8_t>(columns, kVersions) ||
      !rows_below<kEntryMode, std::uint8_t>(columns, kModes) ||
      !rows_below<kEntryContentType, std::uint8_t>(columns, kContentTypes)) {
    return snapshot_error("enum value out of range");
  }
  if (!rows_below<kEntryFlags, std::uint8_t>(
          columns, std::uint64_t{kSnapshotFlagMask} + 1)) {
    return snapshot_error("unknown entry flag bit");
  }
  if (!rows_below<kPageSuccess, std::uint8_t>(columns, 2)) {
    return snapshot_error("bad success value");
  }
  return out;
}

template <ColumnTag tag, typename T>
T SnapshotReader::column(std::size_t row) const {
  return load_at<tag, T>(columns_, row);
}

bool SnapshotReader::next_page(web::PageLoad* out) {
  if (page_cursor_ >= meta_.pages) return false;
  const std::size_t page = page_cursor_++;
  out->tranco_rank = column<kPageRank, std::uint64_t>(page);
  out->base_hostname = symbols_[column<kPageBaseSym, std::uint32_t>(page)];
  out->success = column<kPageSuccess, std::uint8_t>(page) != 0;
  out->extra_dns_queries = static_cast<std::size_t>(
      column<kPageExtraDns, std::uint64_t>(page));
  out->extra_tls_connections = static_cast<std::size_t>(
      column<kPageExtraTls, std::uint64_t>(page));

  const std::size_t count = column<kPageEntryCount, std::uint32_t>(page);
  out->entries.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    web::HarEntry& entry = out->entries[i];
    const std::size_t row = entry_cursor_++;
    entry.resource_index =
        static_cast<int>(column<kEntryResourceIndex, std::int32_t>(row));
    entry.hostname = symbols_[column<kEntryHostSym, std::uint32_t>(row)];
    entry.server_address.family = static_cast<dns::Family>(
        column<kEntryAddrFamily, std::uint8_t>(row));
    entry.server_address.value = column<kEntryAddrValue, std::uint64_t>(row);
    const std::size_t answer_count =
        column<kEntryAnswerCount, std::uint16_t>(row);
    entry.dns_answer_set.resize(answer_count);
    for (dns::IpAddress& address : entry.dns_answer_set) {
      address.family = static_cast<dns::Family>(
          column<kAnswerFamily, std::uint8_t>(answer_cursor_));
      address.value = column<kAnswerValue, std::uint64_t>(answer_cursor_);
      ++answer_cursor_;
    }
    entry.asn = column<kEntryAsn, std::uint32_t>(row);
    entry.version = static_cast<web::HttpVersion>(
        column<kEntryVersion, std::uint8_t>(row));
    entry.mode = static_cast<web::RequestMode>(
        column<kEntryMode, std::uint8_t>(row));
    entry.content_type = static_cast<web::ContentType>(
        column<kEntryContentType, std::uint8_t>(row));
    const std::uint8_t flags = column<kEntryFlags, std::uint8_t>(row);
    entry.secure = (flags & kSnapshotFlagSecure) != 0;
    entry.new_dns_query = (flags & kSnapshotFlagNewDns) != 0;
    entry.new_tls_connection = (flags & kSnapshotFlagNewTls) != 0;
    entry.speculative_duplicate = (flags & kSnapshotFlagSpeculative) != 0;
    entry.status_421 = (flags & kSnapshotFlagStatus421) != 0;
    entry.start = util::SimTime::from_micros(
        column<kEntryStartUs, std::int64_t>(row));
    entry.timings.blocked =
        util::Duration::micros(column<kEntryBlockedUs, std::int64_t>(row));
    entry.timings.dns =
        util::Duration::micros(column<kEntryDnsUs, std::int64_t>(row));
    entry.timings.connect =
        util::Duration::micros(column<kEntryConnectUs, std::int64_t>(row));
    entry.timings.ssl =
        util::Duration::micros(column<kEntrySslUs, std::int64_t>(row));
    entry.timings.send =
        util::Duration::micros(column<kEntrySendUs, std::int64_t>(row));
    entry.timings.wait =
        util::Duration::micros(column<kEntryWaitUs, std::int64_t>(row));
    entry.timings.receive =
        util::Duration::micros(column<kEntryReceiveUs, std::int64_t>(row));
    entry.connection_id = column<kEntryConnectionId, std::uint64_t>(row);
    entry.cert_serial = column<kEntryCertSerial, std::uint64_t>(row);
    entry.cert_issuer = symbols_[column<kEntryIssuerSym, std::uint32_t>(row)];
    entry.cert_san_count = column<kEntrySanCount, std::int64_t>(row);
  }
  return true;
}

void SnapshotReader::rewind() {
  page_cursor_ = 0;
  entry_cursor_ = 0;
  answer_cursor_ = 0;
}

util::Status write_shard_file(const std::string& path,
                              std::span<const std::uint8_t> bytes) {
  // Commit-by-rename (util/durable_file): a crash mid-write leaves a
  // `.tmp`, never a torn `.ocs` under the final name.
  return util::durable_write_file(path, bytes);
}

util::Result<util::Bytes> read_shard_file(const std::string& path) {
  return util::read_file(path);
}

util::Status remove_shard_file(const std::string& path) {
  return util::remove_file(path);
}

std::string shard_file_path(const std::string& dir, std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard_%06zu.ocs", index);
  return dir + "/" + name;
}

std::string quarantine_file_path(const std::string& dir, std::size_t index) {
  return shard_file_path(dir + "/quarantine", index);
}

}  // namespace origin::dataset
