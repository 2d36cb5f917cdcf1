// Copyright (c) swsample authors. Licensed under the MIT license.

#include "core/checkpoint.h"

#include <algorithm>

#include "stream/item_serial.h"

namespace swsample {

void WriteCheckpointHeader(CheckpointKind kind, BinaryWriter* w) {
  w->PutU64(kCheckpointMagic);
  w->PutU64(kCheckpointVersion);
  w->PutU64(static_cast<uint64_t>(kind));
}

bool ReadCheckpointHeader(BinaryReader* r, CheckpointKind* kind) {
  uint64_t magic = 0, version = 0, raw_kind = 0;
  if (!r->GetU64(&magic) || magic != kCheckpointMagic) return false;
  if (!r->GetU64(&version) || version != kCheckpointVersion) return false;
  if (!r->GetU64(&raw_kind) ||
      raw_kind < static_cast<uint64_t>(CheckpointKind::kSampler) ||
      raw_kind > static_cast<uint64_t>(CheckpointKind::kManifest)) {
    return false;
  }
  *kind = static_cast<CheckpointKind>(raw_kind);
  return true;
}

Result<CheckpointKind> PeekCheckpointKind(std::string_view blob) {
  BinaryReader r(blob);
  CheckpointKind kind;
  if (!ReadCheckpointHeader(&r, &kind)) {
    return Status::InvalidArgument(
        "checkpoint: bad magic, unsupported version, or unknown kind");
  }
  return kind;
}

std::string SaveSnapshot(const SamplerSnapshot& snapshot) {
  BinaryWriter w;
  WriteCheckpointHeader(CheckpointKind::kSnapshot, &w);
  w.PutU64(snapshot.active);
  w.PutU64(snapshot.k);
  w.PutBool(snapshot.without_replacement);
  w.PutU64(snapshot.sample.size());
  for (const Item& item : snapshot.sample) SaveItem(item, &w);
  return w.Release();
}

Result<SamplerSnapshot> RestoreSnapshot(std::string_view blob) {
  BinaryReader r(blob);
  CheckpointKind kind;
  if (!ReadCheckpointHeader(&r, &kind) || kind != CheckpointKind::kSnapshot) {
    return Status::InvalidArgument(
        "RestoreSnapshot: blob does not contain a snapshot checkpoint");
  }
  SamplerSnapshot snapshot;
  uint64_t size = 0;
  if (!r.GetU64(&snapshot.active) || !r.GetU64(&snapshot.k) ||
      !r.GetBool(&snapshot.without_replacement) || !r.GetU64(&size)) {
    return Status::InvalidArgument("RestoreSnapshot: truncated envelope");
  }
  // The MergeFrom algebra relies on the size invariants of Snapshot():
  // with replacement, k slots whenever the window is non-empty; without
  // replacement, a uniform min(k, active)-subset.
  const uint64_t expected =
      snapshot.without_replacement
          ? std::min(snapshot.k, snapshot.active)
          : (snapshot.active > 0 ? snapshot.k : 0);
  if (size != expected || size > r.remaining() / 8) {
    return Status::InvalidArgument(
        "RestoreSnapshot: sample size inconsistent with occupancy");
  }
  snapshot.sample.reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    Item item;
    if (!LoadItem(&r, &item)) {
      return Status::InvalidArgument("RestoreSnapshot: truncated sample");
    }
    snapshot.sample.push_back(item);
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("RestoreSnapshot: trailing bytes");
  }
  return snapshot;
}

}  // namespace swsample
