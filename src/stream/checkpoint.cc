// Copyright (c) swsample authors. Licensed under the MIT license.

#include "stream/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/checkpoint.h"
#include "stream/item_serial.h"
#include "util/file_ops.h"

namespace swsample {
namespace {

namespace fs = std::filesystem;

constexpr const char kManifestName[] = "MANIFEST";

/// Bound on untrusted element counts in a manifest (shards, pending
/// buffers); matches the checkpoint-level unit cap.
constexpr uint64_t kMaxManifestEntries = kMaxCheckpointUnits;

std::string ShardFileName(uint64_t shard, uint64_t items) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "shard-%04" PRIu64 "-%" PRIu64 ".ckpt",
                shard, items);
  return buf;
}

/// Manifest wire format: envelope header (kManifest) + position fields +
/// shard file names + pending buffers.
std::string EncodeManifest(const CheckpointManifest& manifest,
                           std::span<const SpillFile> shard_files) {
  BinaryWriter w;
  WriteCheckpointHeader(CheckpointKind::kManifest, &w);
  w.PutU64(manifest.items);
  w.PutI64(manifest.last_ts);
  w.PutBool(manifest.saw_items);
  w.PutU64(manifest.next_chunk_shard);
  w.PutU64(manifest.chunk_items);
  w.PutU64(manifest.partition);
  w.PutU64(manifest.shard_items.size());
  for (size_t s = 0; s < manifest.shard_items.size(); ++s) {
    w.PutU64(manifest.shard_items[s]);
    w.PutString(shard_files[s].name);
  }
  w.PutU64(manifest.pending.size());
  for (const std::vector<Item>& buffer : manifest.pending) {
    w.PutU64(buffer.size());
    for (const Item& item : buffer) SaveItem(item, &w);
  }
  return w.Release();
}

Result<CheckpointManifest> DecodeManifest(
    const std::string& data, std::vector<std::string>* shard_files) {
  BinaryReader r(data);
  CheckpointKind kind;
  if (!ReadCheckpointHeader(&r, &kind) ||
      kind != CheckpointKind::kManifest) {
    return Status::InvalidArgument(
        "checkpoint: MANIFEST has a bad header (wrong magic, version, or "
        "kind)");
  }
  CheckpointManifest manifest;
  uint64_t next_shard = 0, shards = 0, targets = 0;
  if (!r.GetU64(&manifest.items) || !r.GetI64(&manifest.last_ts) ||
      !r.GetBool(&manifest.saw_items) || !r.GetU64(&next_shard) ||
      !r.GetU64(&manifest.chunk_items) || !r.GetU64(&manifest.partition) ||
      !r.GetU64(&shards) || next_shard > 0xffffffffu ||
      shards < 1 || shards > kMaxManifestEntries) {
    return Status::InvalidArgument("checkpoint: truncated MANIFEST header");
  }
  manifest.next_chunk_shard = static_cast<uint32_t>(next_shard);
  shard_files->clear();
  for (uint64_t s = 0; s < shards; ++s) {
    uint64_t items = 0;
    std::string file;
    if (!r.GetU64(&items) || !r.GetString(&file) || file.empty() ||
        file.find('/') != std::string::npos) {
      return Status::InvalidArgument(
          "checkpoint: truncated or invalid MANIFEST shard entry");
    }
    manifest.shard_items.push_back(items);
    shard_files->push_back(std::move(file));
  }
  if (!r.GetU64(&targets) || targets > kMaxManifestEntries) {
    return Status::InvalidArgument("checkpoint: truncated MANIFEST");
  }
  for (uint64_t t = 0; t < targets; ++t) {
    uint64_t count = 0;
    if (!r.GetU64(&count) || count > r.remaining() / 24 + 1) {
      return Status::InvalidArgument(
          "checkpoint: invalid MANIFEST pending buffer");
    }
    std::vector<Item> buffer;
    buffer.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Item item;
      if (!LoadItem(&r, &item)) {
        return Status::InvalidArgument(
            "checkpoint: truncated MANIFEST pending item");
      }
      buffer.push_back(item);
    }
    manifest.pending.push_back(std::move(buffer));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("checkpoint: trailing bytes in MANIFEST");
  }
  return manifest;
}

}  // namespace

Status SpillBatch(const std::string& dir, std::span<const SpillFile> files,
                  bool fsync_files, size_t* files_written,
                  const RetryPolicy& retry, uint64_t* io_retries,
                  const char* site) {
  if (files_written != nullptr) *files_written = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    const SpillFile& file = files[i];
    if (file.name.empty() || file.name.find('/') != std::string::npos) {
      return Status::InvalidArgument("checkpoint: invalid spill file name \"" +
                                     file.name + "\"");
    }
    const std::string path = (fs::path(dir) / file.name).string();
    if (Status status = RetryIo(retry, i, io_retries,
                                [&] {
                                  return AtomicWriteFile(site, path, file.data,
                                                         fsync_files);
                                });
        !status.ok()) {
      return status;
    }
    if (files_written != nullptr) ++*files_written;
  }
  // One directory fsync covers every rename above; without per-file
  // durability there is nothing to pin, so skip it too.
  if (fsync_files && !files.empty()) SyncDirectory(dir);
  return Status::Ok();
}

Result<std::vector<SinkSerializer>> MakeSinkSerializers(const SinkSpec& spec,
                                                        uint64_t shards) {
  std::vector<SinkSerializer> serializers;
  serializers.reserve(shards);
  for (uint64_t shard = 0; shard < shards; ++shard) {
    auto shard_spec = ShardSinkSpec(spec, shard, shards);
    if (!shard_spec.ok()) return shard_spec.status();
    serializers.push_back([spec = shard_spec.value()](StreamSink& sink) {
      return SaveSink(sink, spec);
    });
  }
  return serializers;
}

CheckpointWriter::CheckpointWriter(CheckpointPolicy policy,
                                   std::vector<SinkSerializer> serializers,
                                   uint64_t start_items)
    : policy_(std::move(policy)),
      serializers_(std::move(serializers)),
      captured_items_(start_items),
      last_items_(start_items) {}

CheckpointWriter::~CheckpointWriter() { Wait(); }

bool CheckpointWriter::Due(uint64_t items) const {
  return enabled() && policy_.every_items > 0 &&
         items - captured_items_ >= policy_.every_items;
}

Status CheckpointWriter::Begin(const CheckpointManifest& manifest,
                               std::span<StreamSink* const> sinks) {
  if (Status status = Wait(); !status.ok()) return status;
  if (!enabled()) {
    return Status::FailedPrecondition("checkpoint: writer is disabled");
  }
  if (sinks.size() != serializers_.size() ||
      manifest.shard_items.size() != sinks.size()) {
    return Status::InvalidArgument(
        "checkpoint: sink/serializer/manifest shard counts disagree");
  }
  // Capture: everything the commit needs, taken while the sinks are
  // still at the consistent point.
  std::vector<SpillFile> shard_files;
  shard_files.reserve(sinks.size());
  for (size_t s = 0; s < sinks.size(); ++s) {
    auto blob = serializers_[s](*sinks[s]);
    if (!blob.ok()) return blob.status();
    shard_files.push_back(SpillFile{ShardFileName(s, manifest.items),
                                    std::move(blob).ValueOrDie()});
  }
  std::string manifest_data = EncodeManifest(manifest, shard_files);
  captured_items_ = manifest.items;
  commit_ = std::thread([this, files = std::move(shard_files),
                         data = std::move(manifest_data),
                         items = manifest.items] {
    commit_status_ = Commit(files, data, items);
  });
  return Status::Ok();
}

Status CheckpointWriter::Wait() {
  if (!commit_.joinable()) return Status::Ok();
  commit_.join();
  return std::exchange(commit_status_, Status::Ok());
}

Status CheckpointWriter::Write(const CheckpointManifest& manifest,
                               std::span<StreamSink* const> sinks) {
  if (Status status = Begin(manifest, sinks); !status.ok()) return status;
  return Wait();
}

Status CheckpointWriter::Commit(const std::vector<SpillFile>& files,
                                const std::string& manifest_data,
                                uint64_t items) {
  std::error_code ec;
  fs::create_directories(policy_.dir, ec);
  if (ec) {
    return Status::InvalidArgument("checkpoint: cannot create directory " +
                                   policy_.dir);
  }
  // Shard files first; the MANIFEST rename below is the commit point.
  // SpillBatch pins their directory entries with one fsync before the
  // manifest references them.
  if (Status status = SpillBatch(policy_.dir, files, /*fsync_files=*/true,
                                 nullptr, policy_.retry, &io_retries_,
                                 "ckpt.write");
      !status.ok()) {
    ++io_giveups_;
    return status;
  }
  const std::string manifest_path =
      (fs::path(policy_.dir) / kManifestName).string();
  if (Status status = RetryIo(policy_.retry, /*op_id=*/files.size(),
                              &io_retries_,
                              [&] {
                                return AtomicWriteFile("ckpt.manifest",
                                                       manifest_path,
                                                       manifest_data,
                                                       /*do_fsync=*/true);
                              });
      !status.ok()) {
    ++io_giveups_;
    return status;
  }
  SyncDirectory(policy_.dir);
  // The new checkpoint is committed; clean up files it does not
  // reference, plus temps orphaned by a crash between write and rename
  // (our own error paths never leave one behind).
  for (const auto& entry : fs::directory_iterator(policy_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (name == kManifestName) continue;
    if (name.rfind("shard-", 0) != 0) continue;
    bool referenced = false;
    for (const SpillFile& file : files) {
      if (name == file.name) {
        referenced = true;
        break;
      }
    }
    if (!referenced) fs::remove(entry.path(), ec);
  }
  last_items_ = items;
  if (after_write_) after_write_(items);
  return Status::Ok();
}

Result<ResumedCheckpoint> LoadCheckpoint(const std::string& dir) {
  auto manifest_data =
      ReadFileBytes("ckpt.read", (fs::path(dir) / kManifestName).string());
  if (!manifest_data.ok()) return manifest_data.status();
  std::vector<std::string> shard_files;
  auto manifest = DecodeManifest(manifest_data.value(), &shard_files);
  if (!manifest.ok()) return manifest.status();

  ResumedCheckpoint resumed;
  resumed.position = std::move(manifest).ValueOrDie();
  for (const std::string& file : shard_files) {
    auto blob = ReadFileBytes("ckpt.read", (fs::path(dir) / file).string());
    if (!blob.ok()) return blob.status();
    auto restored = RestoreSink(blob.value());
    if (!restored.ok()) return restored.status();
    RestoredSink& shard = restored.value();
    if (!resumed.sinks.empty() &&
        shard.sink.kind() != resumed.sinks[0].kind()) {
      return Status::InvalidArgument(
          "checkpoint: mixed sampler and estimator shard files");
    }
    if (!resumed.sinks.empty() && shard.spec.name != resumed.name) {
      return Status::InvalidArgument(
          "checkpoint: shard files disagree on the registry name (\"" +
          resumed.name + "\" vs \"" + shard.spec.name + "\")");
    }
    resumed.name = shard.spec.name;
    resumed.sinks.push_back(std::move(shard.sink));
    resumed.specs.push_back(std::move(shard.spec));
  }
  return resumed;
}

std::vector<SinkSerializer> SerializersFor(const ResumedCheckpoint& resumed) {
  std::vector<SinkSerializer> serializers;
  serializers.reserve(resumed.specs.size());
  for (const SinkSpec& spec : resumed.specs) {
    serializers.push_back(
        [spec](StreamSink& sink) { return SaveSink(sink, spec); });
  }
  return serializers;
}

}  // namespace swsample
