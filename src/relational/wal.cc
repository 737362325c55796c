#include "relational/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

namespace ufilter::relational {

namespace {

constexpr char kWalMagic[8] = {'U', 'F', 'W', 'A', 'L', '0', '0', '1'};
constexpr char kCheckpointMagic[8] = {'U', 'F', 'C', 'K', 'P', '0', '0', '1'};
constexpr size_t kMagicLen = sizeof(kWalMagic);
/// [u32 payload_len][u32 crc32] prefix of every frame.
constexpr size_t kFrameHeaderLen = 8;

// ---- little-endian byte codec (shared by WAL records and checkpoints) ----

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Value wire tags (part of the on-disk format — never renumber).
enum : uint8_t {
  kTagNull = 0,
  kTagInt = 1,
  kTagDouble = 2,
  kTagString = 3,
};

void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, kTagNull);
  } else if (v.is_int()) {
    PutU8(out, kTagInt);
    PutU64(out, static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_double()) {
    PutU8(out, kTagDouble);
    double d = v.AsDouble();
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    PutU64(out, bits);
  } else {
    PutU8(out, kTagString);
    PutString(out, v.AsString());
  }
}

void PutRow(std::string* out, const Row& row) {
  PutU32(out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(out, v);
}

/// Bounds-checked reader over an encoded buffer; any overrun or bad tag
/// trips `ok` and makes every later read a no-op.
struct ByteReader {
  const std::string& buf;
  size_t pos = 0;
  bool ok = true;

  explicit ByteReader(const std::string& b) : buf(b) {}

  bool Need(size_t n) {
    if (!ok || buf.size() - pos < n) ok = false;
    return ok;
  }
  uint8_t ReadU8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(buf[pos++]);
  }
  uint32_t ReadU32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(buf[pos++])) << (8 * i);
    }
    return v;
  }
  uint64_t ReadU64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(buf[pos++])) << (8 * i);
    }
    return v;
  }
  std::string ReadString() {
    uint32_t len = ReadU32();
    if (!Need(len)) return {};
    std::string s = buf.substr(pos, len);
    pos += len;
    return s;
  }
  Value ReadValue() {
    switch (ReadU8()) {
      case kTagNull:
        return Value::Null();
      case kTagInt:
        return Value::Int(static_cast<int64_t>(ReadU64()));
      case kTagDouble: {
        uint64_t bits = ReadU64();
        double d = 0;
        std::memcpy(&d, &bits, sizeof d);
        return Value::Double(d);
      }
      case kTagString:
        return Value::String(ReadString());
      default:
        ok = false;
        return Value::Null();
    }
  }
  Row ReadRow() {
    uint32_t n = ReadU32();
    // Sanity cap: a row needs >= 1 byte per value, so n can never exceed
    // the remaining buffer — reject early instead of reserving garbage.
    if (!Need(n)) return {};
    Row row;
    row.reserve(n);
    for (uint32_t i = 0; i < n && ok; ++i) row.push_back(ReadValue());
    return row;
  }
};

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// fsyncs the directory holding `path` so a rename/create/truncate of the
/// entry itself is durable. Best-effort by design: some filesystems refuse
/// directory fsync, and the file-level fsync already happened.
void FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
}

/// See SetRecoveryCrashPointForTesting.
int g_recovery_crash_point = 0;

Status ReadFileContents(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file '" + path + "'");
    return ErrnoStatus("open '" + path + "'");
  }
  out->clear();
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoStatus("read '" + path + "'");
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kGroup:
      return "group";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "?";
}

uint32_t Crc32(const void* data, size_t n) {
  // Table-based CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320),
  // generated once — no zlib dependency.
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string EncodeWalPayload(const WalRecord& record) {
  std::string out;
  PutU64(&out, record.epoch);
  PutU32(&out, static_cast<uint32_t>(record.ops.size()));
  for (const RedoOp& op : record.ops) {
    PutU8(&out, static_cast<uint8_t>(op.kind));
    PutString(&out, op.table);
    PutU64(&out, static_cast<uint64_t>(op.row_id));
    if (op.kind != RedoOp::Kind::kDelete) PutRow(&out, op.row);
  }
  return out;
}

Result<WalRecord> DecodeWalPayload(const std::string& payload) {
  ByteReader r(payload);
  WalRecord record;
  record.epoch = r.ReadU64();
  uint32_t n = r.ReadU32();
  if (!r.Need(n)) {
    return Status::InvalidArgument("wal payload: implausible op count");
  }
  record.ops.reserve(n);
  for (uint32_t i = 0; i < n && r.ok; ++i) {
    RedoOp op;
    uint8_t kind = r.ReadU8();
    if (kind > static_cast<uint8_t>(RedoOp::Kind::kUpdate)) {
      return Status::InvalidArgument("wal payload: bad op kind");
    }
    op.kind = static_cast<RedoOp::Kind>(kind);
    op.table = r.ReadString();
    op.row_id = static_cast<RowId>(r.ReadU64());
    if (op.kind != RedoOp::Kind::kDelete) op.row = r.ReadRow();
    record.ops.push_back(std::move(op));
  }
  if (!r.ok || r.pos != payload.size()) {
    return Status::InvalidArgument("wal payload: truncated or trailing bytes");
  }
  return record;
}

// ---------------------------------------------------------- WalWriter ---

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, FsyncPolicy policy, size_t group_commit_size,
    const EngineCounters* counters) {
  if (policy == FsyncPolicy::kGroup && group_commit_size == 0) {
    return Status::InvalidArgument("group_commit_size must be >= 1");
  }
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("open wal '" + path + "'");
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return ErrnoStatus("fstat wal '" + path + "'");
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(fd, policy, group_commit_size, counters));
  if (st.st_size == 0) {
    UFILTER_RETURN_NOT_OK(writer->WriteRaw(kWalMagic, kMagicLen));
  } else {
    // Appending to an existing log (the post-recovery resume path):
    // insist on an intact magic so we never extend a foreign file.
    if (static_cast<size_t>(st.st_size) < kMagicLen) {
      return Status::InvalidArgument("wal '" + path +
                                     "': shorter than the file magic "
                                     "(recover first to truncate it)");
    }
    int rd = ::open(path.c_str(), O_RDONLY);
    if (rd < 0) return ErrnoStatus("open wal '" + path + "'");
    char magic[kMagicLen];
    ssize_t n = ::pread(rd, magic, kMagicLen, 0);
    ::close(rd);
    if (n != static_cast<ssize_t>(kMagicLen) ||
        std::memcmp(magic, kWalMagic, kMagicLen) != 0) {
      return Status::InvalidArgument("'" + path + "' is not a ufilter WAL");
    }
    writer->total_bytes_ = static_cast<uint64_t>(st.st_size);
  }
  return writer;
}

WalWriter::~WalWriter() {
  // Best-effort drain of any staged kGroup frames: a clean close keeps
  // kNever-grade durability (bytes in the page cache survive a process
  // death); only a crash mid-group loses the staged tail.
  if (fd_ >= 0 && !group_buf_.empty()) {
    (void)WriteRaw(group_buf_.data(), group_buf_.size());
    group_buf_.clear();
  }
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::WriteRaw(const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    size_t chunk = n - off;
    if (crash_after_bytes_ >= 0) {
      const uint64_t threshold = static_cast<uint64_t>(crash_after_bytes_);
      const uint64_t budget =
          threshold > total_bytes_ ? threshold - total_bytes_ : 0;
      if (chunk > budget) {
        // Crash injection: emit exactly up to the requested byte offset,
        // then die the hard way — the parent test sees a torn record at a
        // deterministic position.
        size_t partial = static_cast<size_t>(budget);
        size_t done = 0;
        while (done < partial) {
          ssize_t w = ::write(fd_, data + off + done, partial - done);
          if (w < 0) {
            if (errno == EINTR) continue;
            break;
          }
          done += static_cast<size_t>(w);
        }
        std::raise(SIGKILL);
        _exit(137);  // unreachable unless SIGKILL is somehow blocked
      }
    }
    ssize_t w = ::write(fd_, data + off, chunk);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write wal");
    }
    off += static_cast<size_t>(w);
    total_bytes_ += static_cast<uint64_t>(w);
  }
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record) {
  std::string payload = EncodeWalPayload(record);
  std::string frame;
  frame.reserve(kFrameHeaderLen + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  frame += payload;
  if (policy_ == FsyncPolicy::kGroup) {
    // Stage in user space; the whole group reaches the file as a single
    // write() inside Sync() at the group boundary.
    group_buf_ += frame;
  } else {
    UFILTER_RETURN_NOT_OK(WriteRaw(frame.data(), frame.size()));
  }
  ++records_;
  ++unsynced_records_;
  if (counters_ != nullptr) {
    counters_->wal_records->Inc();
    counters_->wal_bytes->Add(frame.size());
  }
  if (policy_ == FsyncPolicy::kAlways ||
      (policy_ == FsyncPolicy::kGroup && unsynced_records_ >= group_size_)) {
    return Sync();
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (unsynced_records_ == 0) return Status::OK();
  if (!group_buf_.empty()) {
    UFILTER_RETURN_NOT_OK(WriteRaw(group_buf_.data(), group_buf_.size()));
    group_buf_.clear();
  }
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync wal");
  unsynced_records_ = 0;
  ++fsyncs_;
  if (counters_ != nullptr) counters_->wal_fsyncs->Inc();
  return Status::OK();
}

Status WalWriter::Flush() {
  if (group_buf_.empty()) return Status::OK();
  UFILTER_RETURN_NOT_OK(WriteRaw(group_buf_.data(), group_buf_.size()));
  group_buf_.clear();
  return Status::OK();
}

// ------------------------------------------------------------ ReadWal ---

Result<WalReadResult> ReadWal(const std::string& path) {
  std::string contents;
  UFILTER_RETURN_NOT_OK(ReadFileContents(path, &contents));
  WalReadResult result;
  if (contents.size() < kMagicLen) {
    // A crash can tear even the magic write of a brand-new log; an empty
    // or magic-less file simply holds zero durable epochs.
    result.valid_bytes = 0;
    result.tail_truncated = !contents.empty();
    return result;
  }
  if (std::memcmp(contents.data(), kWalMagic, kMagicLen) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a ufilter WAL");
  }
  size_t pos = kMagicLen;
  result.valid_bytes = pos;
  while (contents.size() - pos >= kFrameHeaderLen) {
    ByteReader header(contents);
    header.pos = pos;
    const uint32_t len = header.ReadU32();
    const uint32_t crc = header.ReadU32();
    if (len > contents.size() - pos - kFrameHeaderLen) break;  // torn tail
    std::string payload = contents.substr(pos + kFrameHeaderLen, len);
    if (Crc32(payload.data(), payload.size()) != crc) break;  // corrupt
    Result<WalRecord> record = DecodeWalPayload(payload);
    if (!record.ok()) break;  // checksum ok but undecodable: treat as torn
    result.records.push_back(std::move(*record));
    pos += kFrameHeaderLen + len;
    result.valid_bytes = pos;
  }
  result.tail_truncated = result.valid_bytes < contents.size();
  return result;
}

// ---------------------------------------------------------- WalTailer ---

WalTailer::~WalTailer() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::vector<WalTailer::TailedRecord>> WalTailer::Poll(
    size_t max_batch_bytes) {
  std::vector<TailedRecord> batch;
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_RDONLY);
    if (fd_ < 0) {
      if (errno == ENOENT) return batch;  // log not created yet
      return ErrnoStatus("open wal '" + path_ + "'");
    }
  }
  // Pull everything new past (offset_ + pending_) into the pending buffer.
  for (;;) {
    char buf[1 << 16];
    ssize_t n = ::pread(fd_, buf, sizeof buf,
                        static_cast<off_t>(offset_ + pending_.size()));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread wal '" + path_ + "'");
    }
    if (n == 0) break;
    pending_.append(buf, static_cast<size_t>(n));
    if (pending_.size() > max_batch_bytes + (64u << 10)) break;  // plenty
  }
  size_t pos = 0;
  if (!magic_checked_) {
    if (pending_.size() < kMagicLen) return batch;  // magic still torn
    if (std::memcmp(pending_.data(), kWalMagic, kMagicLen) != 0) {
      return Status::InvalidArgument("'" + path_ + "' is not a ufilter WAL");
    }
    magic_checked_ = true;
    pos = kMagicLen;
  }
  size_t batch_bytes = 0;
  while (pending_.size() - pos >= kFrameHeaderLen &&
         batch_bytes < max_batch_bytes) {
    ByteReader header(pending_);
    header.pos = pos;
    const uint32_t len = header.ReadU32();
    const uint32_t crc = header.ReadU32();
    if (len > pending_.size() - pos - kFrameHeaderLen) break;  // mid-append
    std::string payload = pending_.substr(pos + kFrameHeaderLen, len);
    // Bytes *behind* a complete frame came from finished append calls, so
    // unlike ReadWal's tolerant tail scan this is permanent corruption.
    if (Crc32(payload.data(), payload.size()) != crc) {
      return Status::Internal("wal '" + path_ + "': CRC mismatch at offset " +
                              std::to_string(offset_ + pos));
    }
    Result<WalRecord> record = DecodeWalPayload(payload);
    if (!record.ok()) {
      return Status::Internal("wal '" + path_ + "': undecodable record at " +
                              std::to_string(offset_ + pos) + ": " +
                              record.status().message());
    }
    pos += kFrameHeaderLen + len;
    TailedRecord out;
    out.epoch = record->epoch;
    out.payload = std::move(payload);
    out.end_offset = offset_ + pos;
    batch_bytes += out.payload.size();
    batch.push_back(std::move(out));
  }
  if (pos > 0) {
    pending_.erase(0, pos);
    offset_ += pos;
  }
  return batch;
}

// -------------------------------------------------------- Checkpoints ---

std::string EncodeDatabaseState(const DatabaseSchema& schema,
                                const Snapshot& snapshot) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(schema.tables().size()));
  for (size_t i = 0; i < schema.tables().size(); ++i) {
    const Table* table = snapshot.TableAt(i);
    PutString(&out, schema.tables()[i].name());
    // Interior tombstones are kept (later WAL records address rows by
    // slot), but *trailing* dead slots are trimmed: a rolled-back insert
    // grows the live slot array without ever reaching the log, so replay
    // cannot reproduce the trailing tombstone — and has no need to, since
    // nothing can ever reference it.
    size_t slots = table->SlotCount();
    while (slots > 0 &&
           table->GetRow(static_cast<RowId>(slots - 1)) == nullptr) {
      --slots;
    }
    PutU64(&out, slots);
    for (size_t slot = 0; slot < slots; ++slot) {
      const Row* row = table->GetRow(static_cast<RowId>(slot));
      PutU8(&out, row != nullptr ? 1 : 0);
      if (row != nullptr) PutRow(&out, *row);
    }
  }
  return out;
}

std::string EncodeCheckpointFile(uint64_t epoch,
                                 const std::string& state_payload) {
  std::string payload;
  payload.reserve(8 + state_payload.size());
  PutU64(&payload, epoch);
  payload += state_payload;
  std::string out(kCheckpointMagic, kMagicLen);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32(payload.data(), payload.size()));
  out += payload;
  return out;
}

Result<CheckpointImage> ReadCheckpointFile(const std::string& path) {
  std::string contents;
  UFILTER_RETURN_NOT_OK(ReadFileContents(path, &contents));
  if (contents.size() < kMagicLen + kFrameHeaderLen ||
      std::memcmp(contents.data(), kCheckpointMagic, kMagicLen) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a ufilter checkpoint");
  }
  ByteReader header(contents);
  header.pos = kMagicLen;
  const uint32_t len = header.ReadU32();
  const uint32_t crc = header.ReadU32();
  if (len != contents.size() - kMagicLen - kFrameHeaderLen) {
    return Status::InvalidArgument("checkpoint '" + path +
                                   "': length mismatch");
  }
  std::string payload = contents.substr(kMagicLen + kFrameHeaderLen, len);
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::InvalidArgument("checkpoint '" + path +
                                   "': checksum mismatch");
  }
  ByteReader epoch_reader(payload);
  const uint64_t epoch = epoch_reader.ReadU64();
  if (!epoch_reader.ok) {
    return Status::InvalidArgument("checkpoint '" + path + "': truncated");
  }
  Result<CheckpointImage> image =
      DecodeDatabaseState(epoch, payload.substr(8));
  if (!image.ok()) {
    return Status::InvalidArgument("checkpoint '" + path +
                                   "': " + image.status().message());
  }
  return image;
}

Result<CheckpointImage> DecodeDatabaseState(uint64_t epoch,
                                            const std::string& state_payload) {
  ByteReader r(state_payload);
  CheckpointImage image;
  image.epoch = epoch;
  uint32_t ntables = r.ReadU32();
  for (uint32_t t = 0; t < ntables && r.ok; ++t) {
    std::string name = r.ReadString();
    uint64_t slots = r.ReadU64();
    if (!r.Need(slots)) {  // >= 1 presence byte per slot
      return Status::InvalidArgument("state payload: implausible slot count");
    }
    std::vector<std::optional<Row>> rows;
    rows.reserve(static_cast<size_t>(slots));
    for (uint64_t s = 0; s < slots && r.ok; ++s) {
      if (r.ReadU8() != 0) {
        rows.emplace_back(r.ReadRow());
      } else {
        rows.emplace_back(std::nullopt);
      }
    }
    image.tables.emplace_back(std::move(name), std::move(rows));
  }
  if (!r.ok || r.pos != state_payload.size()) {
    return Status::InvalidArgument("state payload: truncated or trailing bytes");
  }
  return image;
}

Status WriteFileAtomicSynced(const std::string& path,
                             const std::string& contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return ErrnoStatus("open '" + tmp + "'");
  size_t off = 0;
  while (off < contents.size()) {
    ssize_t w = ::write(fd, contents.data() + off, contents.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoStatus("write '" + tmp + "'");
    }
    off += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return ErrnoStatus("fsync '" + tmp + "'");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoStatus("rename '" + tmp + "' -> '" + path + "'");
  }
  // Make the rename itself durable.
  FsyncParentDir(path);
  return Status::OK();
}

void SetRecoveryCrashPointForTesting(int point) {
  g_recovery_crash_point = point;
}

// ------------------------------------------ Database durability glue ---

Database::~Database() {
  // Best-effort shutdown barrier: drain the pending queue and sync. Errors
  // are unreportable here; tests that care call SyncWal explicitly.
  if (durability_enabled()) {
    FlushWalPending();
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (wal_writer_ != nullptr) (void)wal_writer_->Sync();
  }
  wal_enabled_.store(false, std::memory_order_release);
  // The root context's teardown hook must run while the wal state above is
  // still alive (members are destroyed in reverse declaration order).
  root_context_.reset();
}

Status Database::EnableDurability(const DurabilityOptions& opts) {
  if (opts.wal_path.empty()) {
    return Status::InvalidArgument("EnableDurability: wal_path is empty");
  }
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_writer_ != nullptr) {
    return Status::InvalidArgument("durability is already enabled");
  }
  UFILTER_ASSIGN_OR_RETURN(
      wal_writer_, WalWriter::Open(opts.wal_path, opts.fsync_policy,
                                   opts.group_commit_size, &counters_));
  wal_status_ = Status::OK();
  wal_enabled_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Database::wal_status() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  return wal_status_;
}

void Database::FlushWalPending() {
  if (!wal_enabled_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> wal_lock(wal_mu_);
  if (wal_writer_ == nullptr) return;
  for (;;) {
    WalRecord record;
    bool have = false;
    {
      // Brief re-lock just to pop; never hold snapshot_mu_ across the
      // write/fsync below. Lock order is always wal_mu_ -> snapshot_mu_.
      std::lock_guard<std::mutex> lock(snapshot_mu_);
      if (!wal_pending_.empty()) {
        record.epoch = wal_pending_.front().first;
        record.ops = std::move(wal_pending_.front().second);
        wal_pending_.pop_front();
        have = true;
      }
    }
    if (!have) break;
    Status st = wal_writer_->Append(record);
    if (!st.ok()) {
      if (wal_status_.ok()) wal_status_ = st;  // sticky first failure
      break;
    }
  }
}

Status Database::SyncWal() {
  if (!durability_enabled()) return Status::OK();
  FlushWalPending();
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_writer_ == nullptr) return Status::OK();
  Status st = wal_writer_->Sync();
  if (!st.ok() && wal_status_.ok()) wal_status_ = st;
  return st.ok() ? wal_status_ : st;
}

void Database::set_wal_crash_after_bytes_for_testing(int64_t n) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_writer_ != nullptr) wal_writer_->set_crash_after_bytes_for_testing(n);
}

Result<std::string> Database::SerializePublishedState() {
  std::shared_ptr<const Snapshot> snapshot = OpenSnapshot();
  return EncodeDatabaseState(schema_, *snapshot);
}

Result<uint64_t> Database::WriteCheckpoint(const std::string& path) {
  // An MVCC snapshot makes the serialization free of coordination: writers
  // keep committing while we stream an immutable version to disk.
  std::shared_ptr<const Snapshot> snapshot = OpenSnapshot();
  const std::string state = EncodeDatabaseState(schema_, *snapshot);
  UFILTER_RETURN_NOT_OK(
      WriteFileAtomicSynced(path, EncodeCheckpointFile(snapshot->epoch(), state)));
  return snapshot->epoch();
}

Status Database::RecoverFrom(const std::string& wal_path) {
  DurabilityOptions opts;
  opts.wal_path = wal_path;
  return RecoverFrom(opts);
}

Status Database::RecoverFrom(const DurabilityOptions& opts) {
  if (opts.wal_path.empty()) {
    return Status::InvalidArgument("RecoverFrom: wal_path is empty");
  }
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    if (wal_writer_ != nullptr) {
      return Status::InvalidArgument(
          "RecoverFrom: durability already enabled (recover first, then "
          "EnableDurability)");
    }
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (commit_epoch_ != 0 || published_ != nullptr || live_dirty_) {
    return Status::InvalidArgument(
        "RecoverFrom requires a freshly created database");
  }
  for (const auto& table : tables_) {
    if (table->SlotCount() != 0) {
      return Status::InvalidArgument(
          "RecoverFrom requires a freshly created database (table '" +
          table->schema().name() + "' is not empty)");
    }
  }

  uint64_t recovered_epoch = 0;

  // Phase 1: the checkpoint (when configured and present) restores one full
  // published version, slot-exactly.
  if (!opts.checkpoint_path.empty()) {
    Result<CheckpointImage> image = ReadCheckpointFile(opts.checkpoint_path);
    if (!image.ok() && image.status().IsNotFound()) {
      // No checkpoint yet: replay the whole WAL below.
    } else if (!image.ok()) {
      return image.status();
    } else {
      recovered_epoch = image->epoch;
      UFILTER_RETURN_NOT_OK(ApplyCheckpointImageLocked(std::move(*image)));
    }
  }

  // Phase 2: replay the WAL suffix — complete, checksum-valid records with
  // epochs past the checkpoint, in strictly increasing order.
  Result<WalReadResult> wal = ReadWal(opts.wal_path);
  bool wal_file_exists = true;
  if (!wal.ok()) {
    if (!wal.status().IsNotFound()) return wal.status();
    wal_file_exists = false;  // nothing ever logged: empty history
  }
  if (wal_file_exists) {
    uint64_t last_seen = 0;
    for (WalRecord& record : wal->records) {
      if (record.epoch <= last_seen) {
        return Status::Internal("wal '" + opts.wal_path +
                                "': epochs out of order");
      }
      last_seen = record.epoch;
      if (record.epoch <= recovered_epoch) continue;  // checkpoint covers it
      for (RedoOp& op : record.ops) {
        auto it = table_index_.find(op.table);
        if (it == table_index_.end()) {
          return Status::InvalidArgument("wal references unknown table '" +
                                         op.table + "'");
        }
        Table* table = tables_[it->second].get();
        switch (op.kind) {
          case RedoOp::Kind::kInsert:
            if (op.row.size() != table->schema().columns().size()) {
              return Status::Internal("wal row arity mismatch in '" +
                                      op.table + "'");
            }
            if (table->GetRow(op.row_id) != nullptr) {
              return Status::Internal("wal replay: insert into live slot");
            }
            table->PutSlotForRecovery(op.row_id, std::move(op.row));
            break;
          case RedoOp::Kind::kDelete:
            if (table->GetRow(op.row_id) == nullptr) {
              return Status::Internal("wal replay: delete of a dead slot");
            }
            table->EraseRow(op.row_id);
            break;
          case RedoOp::Kind::kUpdate:
            if (op.row.size() != table->schema().columns().size()) {
              return Status::Internal("wal row arity mismatch in '" +
                                      op.table + "'");
            }
            if (table->GetRow(op.row_id) == nullptr) {
              return Status::Internal("wal replay: update of a dead slot");
            }
            table->OverwriteRow(op.row_id, std::move(op.row));
            break;
        }
      }
      recovered_epoch = record.epoch;
    }
    if (wal->tail_truncated) {
      // Physically discard the torn tail so a later EnableDurability
      // appends after the last complete record, not after garbage. The
      // truncation itself must be durable: without the fd fsync (and the
      // parent-directory fsync for the metadata change) a crash right here
      // could resurrect the torn tail on the *next* recovery, after new
      // records were already appended past the truncation point.
      int fd = ::open(opts.wal_path.c_str(), O_WRONLY);
      if (fd < 0) return ErrnoStatus("open wal '" + opts.wal_path + "'");
      if (::ftruncate(fd, static_cast<off_t>(wal->valid_bytes)) != 0) {
        ::close(fd);
        return ErrnoStatus("ftruncate wal '" + opts.wal_path + "'");
      }
      if (g_recovery_crash_point == 1) {
        // Crash-fuzz window: truncation issued but not yet durable.
        std::raise(SIGKILL);
        _exit(137);
      }
      if (::fsync(fd) != 0) {
        ::close(fd);
        return ErrnoStatus("fsync wal '" + opts.wal_path + "'");
      }
      ::close(fd);
      FsyncParentDir(opts.wal_path);
    }
  }

  commit_epoch_ = recovered_epoch;
  if (recovered_epoch > 0) BuildVersionLocked(recovered_epoch);
  return Status::OK();
}

Status Database::ApplyCheckpointImageLocked(CheckpointImage&& image) {
  for (auto& [name, slots] : image.tables) {
    auto it = table_index_.find(name);
    if (it == table_index_.end()) {
      return Status::InvalidArgument(
          "checkpoint table '" + name + "' is not in the schema");
    }
    Table* table = tables_[it->second].get();
    const size_t arity = table->schema().columns().size();
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      if (!slots[slot].has_value()) {
        // Tombstone: materialize the empty slot so later AppendRows
        // (and WAL-replayed inserts) land on the same RowIds.
        if (table->SlotCount() <= slot) {
          table->rows_.resize(slot + 1);
        }
        continue;
      }
      if (slots[slot]->size() != arity) {
        return Status::Internal("checkpoint row arity mismatch in '" + name +
                                "'");
      }
      table->PutSlotForRecovery(static_cast<RowId>(slot),
                                std::move(*slots[slot]));
    }
  }
  return Status::OK();
}

// ------------------------------------------------- Replication apply ---

Status Database::LoadReplicatedSnapshot(uint64_t epoch,
                                        const std::string& state_payload) {
  Result<CheckpointImage> image = DecodeDatabaseState(epoch, state_payload);
  if (!image.ok()) return image.status();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (commit_epoch_ != 0 || published_ != nullptr || live_dirty_) {
    return Status::InvalidArgument(
        "LoadReplicatedSnapshot requires a freshly created database");
  }
  for (const auto& table : tables_) {
    if (table->SlotCount() != 0) {
      return Status::InvalidArgument(
          "LoadReplicatedSnapshot requires a freshly created database "
          "(table '" + table->schema().name() + "' is not empty)");
    }
  }
  UFILTER_RETURN_NOT_OK(ApplyCheckpointImageLocked(std::move(*image)));
  commit_epoch_ = epoch;
  if (epoch > 0) BuildVersionLocked(epoch);
  return Status::OK();
}

Status Database::ApplyReplicatedEpoch(const WalRecord& record) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    if (record.epoch <= commit_epoch_) {
      // Resume-from-epoch duplicate (the primary re-ships from the
      // follower's last durable epoch after a reconnect): already applied.
      return Status::OK();
    }
    if (live_dirty_ || writer_depth_ > 0) {
      return Status::Internal(
          "ApplyReplicatedEpoch: local writer activity on a follower "
          "(dirty=" + std::to_string(live_dirty_) +
          " depth=" + std::to_string(writer_depth_) + ")");
    }
    // Hold writer_depth_ while ops land so OpenSnapshot's
    // publish-on-demand can never pin a half-applied epoch.
    ++writer_depth_;
  }
  auto fail = [this](Status st) {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    --writer_depth_;
    // live_dirty_ may remain set: the database is poisoned for
    // replication purposes and the follower must stop.
    return st;
  };
  const bool log_locally = wal_enabled_.load(std::memory_order_acquire);
  std::vector<RedoOp> local_ops;
  if (log_locally) local_ops.reserve(record.ops.size());
  for (const RedoOp& op : record.ops) {
    auto it = table_index_.find(op.table);
    if (it == table_index_.end()) {
      return fail(Status::InvalidArgument(
          "replicated record references unknown table '" + op.table + "'"));
    }
    // Copy-on-write keeps every pinned snapshot byte-stable while the
    // record lands — the same guarantee local writers get.
    Table* table = WritableBaseTable(it->second);
    switch (op.kind) {
      case RedoOp::Kind::kInsert:
        if (op.row.size() != table->schema().columns().size()) {
          return fail(Status::Internal("replicated row arity mismatch in '" +
                                       op.table + "'"));
        }
        if (table->GetRow(op.row_id) != nullptr) {
          return fail(
              Status::Internal("replicated apply: insert into live slot"));
        }
        table->PutSlotForRecovery(op.row_id, op.row);
        break;
      case RedoOp::Kind::kDelete:
        if (table->GetRow(op.row_id) == nullptr) {
          return fail(
              Status::Internal("replicated apply: delete of a dead slot"));
        }
        table->EraseRow(op.row_id);
        break;
      case RedoOp::Kind::kUpdate:
        if (op.row.size() != table->schema().columns().size()) {
          return fail(Status::Internal("replicated row arity mismatch in '" +
                                       op.table + "'"));
        }
        if (table->GetRow(op.row_id) == nullptr) {
          return fail(
              Status::Internal("replicated apply: update of a dead slot"));
        }
        table->OverwriteRow(op.row_id, op.row);
        break;
    }
    if (log_locally) {
      // Re-log into the follower's own WAL (sealed: no undo pairing), so a
      // restarted follower resumes from its local log instead of
      // re-bootstrapping. Published below under exactly record.epoch.
      RedoOp copy;
      copy.kind = op.kind;
      copy.table = op.table;
      copy.row_id = op.row_id;
      copy.row = op.row;
      local_ops.push_back(std::move(copy));
    }
  }
  Graveyard graveyard;
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    --writer_depth_;
    commit_epoch_ = record.epoch;
    BuildVersionLocked(record.epoch);
    if (log_locally) {
      wal_pending_.emplace_back(record.epoch, std::move(local_ops));
    }
    CollectRetiredLocked(&graveyard);
    flush = WalFlushNeededLocked();
  }
  if (flush) FlushWalPending();
  return Status::OK();
}

Status Database::FlushWalToFile() {
  if (!durability_enabled()) return Status::OK();
  FlushWalPending();
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_writer_ == nullptr) return Status::OK();
  Status st = wal_writer_->Flush();
  if (!st.ok() && wal_status_.ok()) wal_status_ = st;
  return st;
}

}  // namespace ufilter::relational
