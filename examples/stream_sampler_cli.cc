// Copyright (c) swsample authors. Licensed under the MIT license.
//
// stream_sampler_cli: pump a real stream from stdin (or a file) through
// any registered sampler OR any registered estimator over any compatible
// sampling substrate (Theorem 5.1 at the command line) — optionally one
// independent window PER KEY through the multi-tenant keyed engine.
//
//   build/examples/stream_sampler_cli [options] [<window> <k>]
//
//   --sink=<spec>        the sink to run, in the unified SinkSpec grammar
//                        name[@substrate][,key=value]... — e.g.
//                        "bop-seq-swor,n=1000000,k=64" or
//                        "ams-fk@bop-ts-single,t=60,r=256". When given,
//                        the positionals are optional and override the
//                        spec's window (n or t) and k/r.
//   --algo=<name>        alias: sampler to run (default bop-seq-swor);
//                        builds the same SinkSpec as --sink=<name>,...
//   --estimator=<name>   alias: run an estimator instead of a raw sampler
//   --substrate=<name>   alias: sampling substrate for --estimator
//                        (default: the estimator's registered default)
//   --list-sinks         every registered sink — samplers and estimators —
//                        in one listing
//   --list               every registered sampler with a summary
//   --list-estimators    every registered estimator with its compatible
//                        substrates
//   --keys[=<shift>]     keyed multi-tenant mode: an independent window
//                        per key, key = value >> shift (default 0: the
//                        raw value is the tenant id)
//   --key-budget=<b>     global memory budget for keyed mode; accepts
//                        K/M/G suffixes (e.g. 64M). Requires --spill-dir;
//                        coldest keys spill to disk when the budget binds.
//                        Batched runs hold it after every per-key
//                        micro-batch; --batch=0 (single-threaded) holds
//                        it after every item
//   --key-ttl=<t>        drop keys idle longer than t timestamp units
//   --spill-dir=<d>      directory for keyed-mode eviction spill files
//   --file=<path>        read events from a file instead of stdin
//   --workload=<spec>    synthesize the stream instead of reading one: a
//                        seeded workload generator in the grammar of
//                        stream/workload.h — e.g. "constant@zipf,rate=8",
//                        "poisson,lambda=6,skew=12", "churn,t=60".
//                        Incompatible with --file and checkpointing
//   --items=<n>          events to synthesize for --workload (default 1e6)
//   --record-trace=<p>   write the synthesized stream to a compact binary
//                        trace at p (replayable bit-identically later)
//   --replay-trace=<p>   read the stream from a trace file instead of
//                        generating (same restrictions as --workload)
//   --batch=<n>          ingestion batch size (default 1024; 0 = per item)
//   --seed=<n>           RNG seed (default 0x5eed); equal seeds reproduce
//                        runs exactly
//   --threads=<n>        worker threads for sharded ingestion (>= 1;
//                        default 1 = the single-threaded driver)
//   --shards=<n>         sink replicas for sharded ingestion (default:
//                        one per thread); sequence windows must divide
//                        evenly by the shard count. One shard is the
//                        unsharded sink (same seed, same window)
//   --partition=<mode>   chunks | keyhash (default: keyhash for timestamp
//                        sinks, for estimators whose merge needs
//                        key-disjoint shards, e.g. ams-fk/ccm-entropy,
//                        and ALWAYS for keyed mode; chunks otherwise)
//   --checkpoint-dir=<d> persist periodic checkpoints (sink state + a
//                        manifest, atomic write-rename) into directory d
//   --checkpoint-every=<n>  checkpoint every n ingested events (default
//                        1000000; taken at the next batch boundary)
//   --resume             restore from --checkpoint-dir and continue: the
//                        input must REPLAY the stream from the beginning
//                        (the already-ingested prefix is skipped); the
//                        final report is bit-identical to a run that was
//                        never interrupted
//   --kill-after=<n>     testing hook: SIGKILL this process right after
//                        the first checkpoint at >= n events (the CI
//                        crash/resume smoke test drives this)
//   --moment=<k>         frequency moment for --estimator=ams-fk (default 2)
//   --vertices=<v>       vertex universe for --estimator=buriol-triangles
//   --q=<q>              quantile for --estimator=dkw-quantile (default 0.5)
//   --report=<n>         progress report every n events to stderr (default
//                        10000; 0 = none, stdin mode only)
//   <window>             n (items) for sequence samplers/substrates, t0
//                        (time units) for timestamp ones
//   <k>                  samples to maintain / estimator units r
//
// Input: one event per line. Sequence mode: "<value>"; timestamp mode:
// "<timestamp> <value>" with non-decreasing integer timestamps. Blank
// lines are skipped; malformed lines abort with the offending line number.
// The final sample (or estimate), memory footprint and ingestion
// throughput go to stdout.
//
//   --algo=bop-seq-swor 1000000 64:  a uniform 64-subset of the last
//   million events from ~400 words of state, however long the stream runs.
//
//   --estimator=ams-fk --substrate=bop-ts-single 60 256:  the self-join
//   size F2 of the last 60 seconds, window size unknowable, O(r log n).
//
//   --sink=bop-ts-single,t=60 --keys --key-ttl=3600:  one window of the
//   last 60 seconds PER VALUE, tenants dropped after an idle hour.
//
// Keyed mode is stats-only at the end of the stream (per-key queries are
// a library surface: KeyedWindowEngine::SampleKey/EstimateKey) and is
// incompatible with checkpointing — the engine's own spill files are its
// persistence story.

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/estimator_registry.h"
#include "apps/sink_spec.h"
#include "core/api.h"
#include "core/registry.h"
#include "stream/checkpoint.h"
#include "stream/driver.h"
#include "stream/keyed_engine.h"
#include "stream/sharded_driver.h"
#include "stream/workload.h"
#include "util/failpoint.h"
#include "util/spec_text.h"

using namespace swsample;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sink=<spec> | --algo=<name> | "
               "--estimator=<name> [--substrate=<name>]] "
               "[--keys[=<shift>] [--key-budget=<b> --spill-dir=<d>] "
               "[--key-ttl=<t>] "
               "[--key-degrade=block|shed] [--key-io-retries=<n>]] "
               "[--failpoints=<site>=<class>[,k=v]...[;...]] "
               "[--file=<path> | --workload=<spec> "
               "[--items=<n>] [--record-trace=<p>] | --replay-trace=<p>] "
               "[--batch=<n>] "
               "[--seed=<n>] [--moment=<k>] [--vertices=<v>] [--q=<q>] "
               "[--report=<n>] [--threads=<n>] [--shards=<n>] "
               "[--partition=chunks|keyhash] [--checkpoint-dir=<d> "
               "[--checkpoint-every=<n>] [--resume]] [<window> <k>]\n"
               "       %s --list-sinks | --list | --list-estimators\n"
               "  sequence mode reads lines \"<value>\"; timestamp mode\n"
               "  reads \"<timestamp> <value>\"\n"
               "  sinks: %s\n",
               argv0, argv0, RegisteredSinkNames().c_str());
}

void ListSamplers() {
  std::printf("registered samplers:\n");
  for (const SamplerSpec& spec : RegisteredSamplers()) {
    std::printf("  %-20s %-9s %s\n", spec.name,
                spec.model == WindowModel::kSequence ? "sequence"
                                                     : "timestamp",
                spec.summary);
  }
}

void ListEstimators() {
  std::printf("registered estimators:\n");
  for (const EstimatorSpec& spec : RegisteredEstimators()) {
    std::printf("  %-17s %-10s %s\n", spec.name, spec.metric, spec.summary);
    std::printf("  %-17s   default substrate %s; compatible:", "",
                spec.default_substrate);
    for (const char* substrate : spec.substrates) {
      std::printf(" %s", substrate);
    }
    std::printf("\n");
  }
}

/// Prints `status` to stderr and returns `exit_code`.
int Fail(const Status& status, int exit_code = 1) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return exit_code;
}

void PrintSample(FILE* out, uint64_t events, uint64_t memory_words,
                 const std::vector<Item>& sample) {
  std::fprintf(out, "events=%" PRIu64 " memory=%" PRIu64 " words sample=[",
               events, memory_words);
  for (size_t i = 0; i < sample.size(); ++i) {
    std::fprintf(out, "%s%" PRIu64, i ? " " : "", sample[i].value);
  }
  std::fprintf(out, "]\n");
}

void PrintEstimate(FILE* out, uint64_t events, uint64_t memory_words,
                   const EstimateReport& report) {
  std::fprintf(out,
               "events=%" PRIu64 " memory=%" PRIu64
               " words %s=%.6g window=%.6g support=%" PRIu64 "\n",
               events, memory_words, report.metric.c_str(), report.value,
               report.window_size, report.support);
}

/// Queries one sink and prints its sample or estimate.
void ReportSink(const Sink& sink, uint64_t events, FILE* out) {
  if (sink.sampler != nullptr) {
    const std::vector<Item> sample = sink.sampler->Sample();
    PrintSample(out, events, sink.sampler->MemoryWords(), sample);
  } else {
    const EstimateReport report = sink.estimator->Estimate();
    PrintEstimate(out, events, sink.estimator->MemoryWords(), report);
  }
}

/// Prints the keyed engines' aggregated multi-tenant stats; returns the
/// exit code (non-zero when the run was lossy or ended in an outage).
int ReportKeyed(const std::vector<std::unique_ptr<KeyedWindowEngine>>& engines,
                uint64_t events) {
  // A spill/restore I/O failure in block mode latches into the engine
  // status instead of aborting ingestion; surface it as a run failure
  // here. Shed mode never latches — its outage shows up as a degraded
  // health state plus drop accounting, reported (and turned into a
  // non-zero exit) below.
  KeyedEngineStats total;
  KeyedEngineHealth worst = KeyedEngineHealth::kHealthy;
  bool latched = false;
  for (const auto& engine : engines) {
    if (!engine->status().ok()) {
      Fail(engine->status());
      latched = true;
    }
    const KeyedEngineStats& stats = engine->stats();
    total.live_keys += stats.live_keys;
    total.spilled_keys += stats.spilled_keys;
    total.evictions += stats.evictions;
    total.restores += stats.restores;
    total.expirations += stats.expirations;
    total.charged_bytes += stats.charged_bytes;
    total.retained_bytes += stats.retained_bytes;
    total.io_retries += stats.io_retries;
    total.io_giveups += stats.io_giveups;
    total.degraded_drops += stats.degraded_drops;
    total.shed_bytes += stats.shed_bytes;
    total.quarantined_files += stats.quarantined_files;
    total.restore_misses += stats.restore_misses;
    // Degraded dominates recovering dominates healthy: any shard still in
    // an outage makes the whole run degraded.
    if (stats.health == KeyedEngineHealth::kDegraded ||
        (stats.health == KeyedEngineHealth::kRecovering &&
         worst == KeyedEngineHealth::kHealthy)) {
      worst = stats.health;
    }
  }
  std::printf("events=%" PRIu64 " live_keys=%" PRIu64 " spilled_keys=%" PRIu64
              " evictions=%" PRIu64 " restores=%" PRIu64
              " expirations=%" PRIu64 " charged=%" PRIu64
              " bytes retained=%" PRIu64 " bytes\n",
              events, total.live_keys, total.spilled_keys, total.evictions,
              total.restores, total.expirations, total.charged_bytes,
              total.retained_bytes);
  std::printf("io_retries=%" PRIu64 " io_giveups=%" PRIu64
              " degraded_drops=%" PRIu64 " shed_bytes=%" PRIu64
              " quarantined_files=%" PRIu64 " restore_misses=%" PRIu64
              " health=%s\n",
              total.io_retries, total.io_giveups, total.degraded_drops,
              total.shed_bytes, total.quarantined_files, total.restore_misses,
              KeyedHealthName(worst));
  // Any of these means the printed results are lossy or the engine ended
  // the run inside an outage; succeed only on a clean (possibly retried)
  // run.
  if (latched || worst != KeyedEngineHealth::kHealthy ||
      total.io_giveups > 0 || total.degraded_drops > 0 ||
      total.restore_misses > 0) {
    std::fprintf(stderr,
                 "keyed: unhealthy run: health=%s io_giveups=%" PRIu64
                 " degraded_drops=%" PRIu64 " quarantined_files=%" PRIu64
                 " restore_misses=%" PRIu64 "\n",
                 KeyedHealthName(worst), total.io_giveups,
                 total.degraded_drops, total.quarantined_files,
                 total.restore_misses);
    return 1;
  }
  return 0;
}

/// Everything main's flag parse decides beyond the SinkSpec and the keyed
/// engine options.
struct RunFlags {
  std::string file;  // --file; empty = stdin
  // --workload/--replay-trace: a pre-materialized stream to drive instead
  // of parsing stdin/--file (checkpointing is refused in main for these).
  bool synthesized = false;
  std::vector<Item> items;
  uint64_t batch = 1024;
  uint64_t seed = 0x5eed;
  uint64_t report_every = 10000;
  uint64_t threads = 1;
  uint64_t shards = 0;    // 0 = one per thread
  std::string partition;  // "", "chunks", or "keyhash"
  bool keyed = false;     // --keys
  std::string checkpoint_dir;  // empty = disabled
  uint64_t checkpoint_every = 1000000;
  bool resume = false;
  uint64_t kill_after = 0;  // --kill-after testing hook
};

/// The --checkpoint-dir writer for `shards` sinks built from `spec`, with
/// the --kill-after crash-injection hook installed; null without
/// --checkpoint-dir. On --resume the checkpoint's own specs keep stamping
/// the envelopes, so flag drift cannot corrupt later checkpoints, and the
/// resumed position re-seeds the every-N cadence.
Result<std::unique_ptr<CheckpointWriter>> MakeCheckpointWriter(
    const RunFlags& run, const SinkSpec& spec, uint64_t shards,
    const ResumedCheckpoint& resumed) {
  if (run.checkpoint_dir.empty()) return std::unique_ptr<CheckpointWriter>();
  CheckpointPolicy policy;
  policy.dir = run.checkpoint_dir;
  policy.every_items = run.checkpoint_every;
  std::vector<SinkSerializer> serializers;
  if (run.resume) {
    serializers = SerializersFor(resumed);
  } else {
    auto made = MakeSinkSerializers(spec, shards);
    if (!made.ok()) return made.status();
    serializers = std::move(made).ValueOrDie();
  }
  auto writer = std::make_unique<CheckpointWriter>(
      policy, std::move(serializers), resumed.position.items);
  if (run.kill_after > 0) {
    writer->set_after_write([kill_after = run.kill_after](uint64_t items) {
      if (items >= kill_after) {
        std::fprintf(stderr,
                     "--kill-after: SIGKILL after checkpoint at %" PRIu64
                     " events\n",
                     items);
        std::raise(SIGKILL);
      }
    });
  }
  return writer;
}

const char* KindName(SinkKind kind) {
  return kind == SinkKind::kSampler ? "sampler" : "estimator";
}

/// Builds the shard set (fresh sinks, sinks restored from a checkpoint,
/// or keyed engines), drives the stream through the single-threaded
/// driver for one shard on one thread or the sharded engine otherwise,
/// and prints the result. Returns the process exit code.
int Run(const RunFlags& run, const SinkSpec& spec,
        const KeyedEngineOptions& keyed, bool timestamped) {
  const uint64_t shard_count = run.shards == 0 ? run.threads : run.shards;
  const bool sharded = run.threads > 1 || shard_count > 1;
  std::vector<Sink> sinks;
  std::vector<std::unique_ptr<KeyedWindowEngine>> engines;
  ResumedCheckpoint resumed;  // --resume: restored specs + skip position
  if (run.keyed) {
    auto created = CreateKeyedEngines(keyed, shard_count);
    if (!created.ok()) return Fail(created.status());
    engines = std::move(created).ValueOrDie();
  } else if (run.resume) {
    auto loaded = LoadCheckpoint(run.checkpoint_dir);
    if (!loaded.ok()) return Fail(loaded.status());
    resumed = std::move(loaded).ValueOrDie();
    sinks = std::move(resumed.sinks);
    // Registry names are disjoint across kinds, so a name match is a kind
    // match too.
    if (sinks.size() != shard_count || resumed.name != spec.name) {
      std::fprintf(stderr,
                   "--resume: checkpoint in %s holds %zu %s shard(s) of "
                   "\"%s\", but the flags request %" PRIu64
                   " %s shard(s) of \"%s\"\n",
                   run.checkpoint_dir.c_str(), sinks.size(),
                   KindName(sinks[0].kind()), resumed.name.c_str(),
                   shard_count, KindName(SinkKindOf(spec.name).value()),
                   spec.name.c_str());
      return 2;
    }
    std::fprintf(stderr, "resume: restored %s", resumed.name.c_str());
    if (sharded) {
      std::fprintf(stderr, " (%" PRIu64 " shard(s))", shard_count);
    }
    std::fprintf(stderr,
                 " at %" PRIu64 " events; the checkpoint's configuration "
                 "is authoritative\n",
                 resumed.position.items);
  } else {
    auto created = CreateShardedSinks(spec, shard_count);
    if (!created.ok()) return Fail(created.status());
    sinks = std::move(created).ValueOrDie();
  }
  const std::vector<StreamSink*> shards =
      run.keyed ? SinkPointers(engines) : SinkPointers(sinks);

  // Keys must be whole — every arrival of a key has to reach the engine
  // that owns it — so keyed sharding is always key-hash partitioned.
  bool key_hash = run.keyed || run.partition == "keyhash";
  if (!run.keyed) {
    const Sink& first = sinks[0];
    // N-shard output only exists through the merge surface, so refuse
    // non-mergeable sinks up front instead of after ingesting the stream.
    if (shard_count > 1 &&
        (first.sampler != nullptr
             ? !first.sampler->mergeable()
             : first.estimator->merge_kind() == EstimateMergeKind::kNone)) {
      std::fprintf(stderr,
                   "%s is not merge-capable; run it single-threaded "
                   "(--threads=1)\n",
                   spec.name.c_str());
      return 2;
    }
    // Default partitioning: key-hash whenever the merge algebra needs
    // key-disjoint shards (F_k, entropy) or the window model is
    // timestamp-based; round-robin chunks otherwise. An explicit
    // --partition wins (and owns the statistical consequences).
    if (run.partition.empty()) {
      key_hash = timestamped ||
                 (first.estimator != nullptr &&
                  MergeNeedsKeyDisjointShards(first.estimator->merge_kind()));
    }
    if (sharded && key_hash && !timestamped) {
      std::fprintf(stderr,
                   "note: key-hash sharding of a sequence window assumes "
                   "near-uniform key load; for skewed keys prefer a "
                   "timestamp substrate (e.g. --substrate=bop-ts-single)\n");
    }
  }

  auto writer = MakeCheckpointWriter(run, spec, shard_count, resumed);
  if (!writer.ok()) return Fail(writer.status());
  const CheckpointManifest* resume_pos =
      run.resume ? &resumed.position : nullptr;
  // Progress reports flush batches early, which would move checkpoints
  // off the uninterrupted run's batch grid; checkpointed runs skip them.
  const uint64_t progress_every = writer.value() ? 0 : run.report_every;
  auto progress = [&](uint64_t items) {
    if (!run.keyed) return ReportSink(sinks[0], items, stderr);
    const KeyedEngineStats& stats = engines[0]->stats();
    std::fprintf(stderr,
                 "events=%" PRIu64 " live_keys=%" PRIu64 " spilled=%" PRIu64
                 " charged=%" PRIu64 " bytes\n",
                 items, stats.live_keys, stats.spilled_keys,
                 stats.charged_bytes);
  };
  auto drive = [&]() -> Result<ShardedDriveReport> {
    if (!sharded) {
      StreamDriver::Options options;
      options.batch_size = run.batch;
      const StreamDriver driver(options);
      StreamSink& sink = *shards[0];
      Result<DriveReport> single =
          run.synthesized
              ? Result<DriveReport>(driver.Drive(run.items, sink))
          : run.file.empty()
              ? driver.DriveLines(stdin, "stdin", timestamped, sink, progress,
                                  progress_every, writer.value().get(),
                                  resume_pos)
              : driver.DriveFile(run.file, timestamped, sink,
                                 writer.value().get(), resume_pos);
      if (!single.ok()) return single.status();
      return ShardedDriveReport{std::move(single).ValueOrDie(), {}};
    }
    ShardedStreamDriver::Options options;
    options.threads = run.threads;
    // --batch=0 selects the per-item slow path in the single-threaded
    // driver; chunks are the sharded transfer unit, so keep them batched.
    options.chunk_items = run.batch == 0 ? 1024 : run.batch;
    options.partition =
        key_hash ? ShardPartition::kKeyHash : ShardPartition::kChunks;
    // The router hashes the SHIFTED tenant id so --keys=<shift> keeps
    // each folded key on one engine.
    options.key_shift = keyed.key_shift;
    const ShardedStreamDriver driver(options);
    return run.synthesized ? driver.Drive(run.items, shards)
           : run.file.empty()
               ? driver.DriveLinesCheckpointed(stdin, "stdin", timestamped,
                                               shards, writer.value().get(),
                                               resume_pos)
               : driver.DriveFileCheckpointed(run.file, timestamped, shards,
                                              writer.value().get(),
                                              resume_pos);
  };
  const Result<ShardedDriveReport> result = drive();
  if (!result.ok()) return Fail(result.status());
  const ShardedDriveReport& report = result.value();

  // Stream totals include the prefix a resumed run skipped — minus the
  // checkpoint's pending router items, which that prefix already counts
  // but which are delivered (and counted) by this run.
  uint64_t resumed_pending = 0;
  for (const auto& buffer : resumed.position.pending) {
    resumed_pending += buffer.size();
  }
  const uint64_t total_events =
      report.total.items + resumed.position.items - resumed_pending;
  const std::string label =
      run.keyed ? "keyed-engine(" + FormatSinkSpec(spec) + ")"
                : std::string(shards[0]->name());
  if (sharded) {
    std::fprintf(stderr,
                 "sink=%s shards=%" PRIu64 " threads=%" PRIu64
                 " partition=%s items=%" PRIu64 " aggregate=%.2fM items/s\n",
                 label.c_str(), shard_count, run.threads,
                 key_hash ? "keyhash" : "chunks", total_events,
                 report.total.items_per_sec / 1e6);
  } else {
    std::fprintf(stderr, "sink=%s items=%" PRIu64, label.c_str(),
                 total_events);
    if (!run.keyed) {
      std::fprintf(stderr, " batches=%" PRIu64, report.total.batches);
    }
    std::fprintf(stderr, " throughput=%.2fM items/s\n",
                 report.total.items_per_sec / 1e6);
  }
  if (report.total.io_retries > 0 || report.total.io_giveups > 0) {
    std::fprintf(stderr, "checkpoint: io_retries=%" PRIu64
                 " io_giveups=%" PRIu64 "\n",
                 report.total.io_retries, report.total.io_giveups);
  }
  if (run.keyed) return ReportKeyed(engines, total_events);
  for (size_t s = 0; s < report.shards.size(); ++s) {
    const ShardReport& shard = report.shards[s];
    std::fprintf(stderr,
                 "  shard %zu: items=%" PRIu64 " memory=%" PRIu64
                 " words busy=%.2fM items/s\n",
                 s, shard.items, shard.memory_words,
                 shard.items_per_sec / 1e6);
  }

  if (sinks.size() == 1) {
    ReportSink(sinks[0], total_events, stdout);
    return 0;
  }
  if (sinks[0].estimator != nullptr) {
    auto merged = MergedEstimate(EstimatorPointers(sinks).ValueOrDie());
    if (!merged.ok()) return Fail(merged.status());
    PrintEstimate(stdout, total_events, report.total.memory_words,
                  merged.value());
    return 0;
  }
  auto merged =
      MergedSnapshot(SamplerPointers(sinks).ValueOrDie(), run.seed ^ 0x5eedful);
  if (!merged.ok()) return Fail(merged.status());
  PrintSample(stdout, total_events, report.total.memory_words,
              merged.value().sample);
  return 0;
}

/// atexit hook, installed only when failpoints were armed: dumps per-site
/// hit/fire counters so a fault drill shows exactly what was injected.
void PrintFailpointReport() {
  const std::string report = FailpointReport();
  if (!report.empty()) {
    std::fprintf(stderr, "failpoints:\n%s", report.c_str());
  }
}

// Parses a byte count with an optional K/M/G (binary) suffix: "64M".
// False on a malformed count or one that overflows 2^64-1 once scaled.
bool ParseBytes(std::string_view s, uint64_t* out) {
  uint64_t shift = 0;
  const char suffix = s.empty() ? '\0' : s.back();
  if (suffix == 'K' || suffix == 'k') shift = 10;
  else if (suffix == 'M' || suffix == 'm') shift = 20;
  else if (suffix == 'G' || suffix == 'g') shift = 30;
  if (shift > 0) s.remove_suffix(1);
  uint64_t v = 0;
  if (!ParseUnsigned(s, &v) || v > (UINT64_MAX >> shift)) return false;
  *out = v << shift;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunFlags run;
  // --algo/--estimator/--substrate/--moment/--vertices/--q fill `spec`
  // directly; --sink replaces it wholesale.
  SinkSpec spec;
  KeyedEngineOptions keyed;
  std::string sink_text;  // --sink: the full SinkSpec grammar
  std::string algo;       // --algo alias (default applied when nothing set)
  std::string estimator_name;
  std::string workload;      // --workload generator spec
  uint64_t workload_items = 1000000;  // --items
  std::string record_trace;  // --record-trace
  std::string replay_trace;  // --replay-trace
  uint64_t moment = 2;
  uint64_t vertices = 0;
  uint64_t key_ttl = 0;
  uint64_t key_io_retries = 0;  // --key-io-retries; 0 = policy default
  std::string failpoints;    // --failpoints; also SWSAMPLE_FAILPOINTS env
  bool failpoints_set = false;
  std::vector<const char*> positional;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t* u64_flag = nullptr;
    const char* u64_value = nullptr;
    if (std::strcmp(arg, "--list") == 0) {
      ListSamplers();
      return 0;
    } else if (std::strcmp(arg, "--list-estimators") == 0) {
      ListEstimators();
      return 0;
    } else if (std::strcmp(arg, "--list-sinks") == 0) {
      std::printf("%s", FormatSinkList().c_str());
      return 0;
    } else if (std::strncmp(arg, "--sink=", 7) == 0) {
      sink_text = arg + 7;
    } else if (std::strncmp(arg, "--algo=", 7) == 0) {
      algo = arg + 7;
    } else if (std::strncmp(arg, "--estimator=", 12) == 0) {
      estimator_name = arg + 12;
    } else if (std::strncmp(arg, "--substrate=", 12) == 0) {
      spec.substrate = arg + 12;
    } else if (std::strcmp(arg, "--keys") == 0) {
      run.keyed = true;
    } else if (std::strncmp(arg, "--keys=", 7) == 0) {
      run.keyed = true;
      u64_flag = &keyed.key_shift;
      u64_value = arg + 7;
    } else if (std::strncmp(arg, "--key-budget=", 13) == 0) {
      if (!ParseBytes(arg + 13, &keyed.memory_budget_bytes)) {
        std::fprintf(stderr,
                     "error: --key-budget expects bytes with an optional "
                     "K/M/G suffix, got \"%s\"\n",
                     arg + 13);
        return 2;
      }
    } else if (std::strncmp(arg, "--key-ttl=", 10) == 0) {
      if (!ParseUnsigned(arg + 10, &key_ttl)) {
        std::fprintf(stderr,
                     "error: --key-ttl expects a non-negative integer, got "
                     "\"%s\"\n",
                     arg + 10);
        return 2;
      }
      keyed.idle_ttl = static_cast<Timestamp>(key_ttl);
    } else if (std::strncmp(arg, "--key-degrade=", 14) == 0) {
      const char* mode = arg + 14;
      if (std::strcmp(mode, "block") == 0) {
        keyed.degrade = KeyedDegradeMode::kBlock;
      } else if (std::strcmp(mode, "shed") == 0) {
        keyed.degrade = KeyedDegradeMode::kShed;
      } else {
        std::fprintf(stderr,
                     "error: --key-degrade expects block or shed, got "
                     "\"%s\"\n",
                     mode);
        return 2;
      }
    } else if (std::strncmp(arg, "--key-io-retries=", 17) == 0) {
      u64_flag = &key_io_retries;
      u64_value = arg + 17;
    } else if (std::strncmp(arg, "--failpoints=", 13) == 0) {
      failpoints = arg + 13;
      failpoints_set = true;
    } else if (std::strncmp(arg, "--spill-dir=", 12) == 0) {
      keyed.spill_dir = arg + 12;
    } else if (std::strncmp(arg, "--file=", 7) == 0) {
      run.file = arg + 7;
    } else if (std::strncmp(arg, "--workload=", 11) == 0) {
      workload = arg + 11;
    } else if (std::strncmp(arg, "--items=", 8) == 0) {
      u64_flag = &workload_items;
      u64_value = arg + 8;
    } else if (std::strncmp(arg, "--record-trace=", 15) == 0) {
      record_trace = arg + 15;
    } else if (std::strncmp(arg, "--replay-trace=", 15) == 0) {
      replay_trace = arg + 15;
    } else if (std::strncmp(arg, "--batch=", 8) == 0) {
      u64_flag = &run.batch;
      u64_value = arg + 8;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      u64_flag = &run.seed;
      u64_value = arg + 7;
    } else if (std::strncmp(arg, "--moment=", 9) == 0) {
      u64_flag = &moment;
      u64_value = arg + 9;
    } else if (std::strncmp(arg, "--vertices=", 11) == 0) {
      u64_flag = &vertices;
      u64_value = arg + 11;
    } else if (std::strncmp(arg, "--q=", 4) == 0) {
      if (!ParseFiniteDouble(arg + 4, &spec.q)) {
        std::fprintf(stderr, "error: --q requires a number, got \"%s\"\n",
                     arg + 4);
        return 2;
      }
    } else if (std::strncmp(arg, "--report=", 9) == 0) {
      u64_flag = &run.report_every;
      u64_value = arg + 9;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      u64_flag = &run.threads;
      u64_value = arg + 10;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      u64_flag = &run.shards;
      u64_value = arg + 9;
    } else if (std::strncmp(arg, "--partition=", 12) == 0) {
      run.partition = arg + 12;
      if (run.partition != "chunks" && run.partition != "keyhash") {
        std::fprintf(stderr,
                     "error: --partition expects chunks or keyhash, got "
                     "\"%s\"\n",
                     run.partition.c_str());
        return 2;
      }
    } else if (std::strncmp(arg, "--checkpoint-dir=", 17) == 0) {
      run.checkpoint_dir = arg + 17;
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      u64_flag = &run.checkpoint_every;
      u64_value = arg + 19;
    } else if (std::strcmp(arg, "--resume") == 0) {
      run.resume = true;
    } else if (std::strncmp(arg, "--kill-after=", 13) == 0) {
      u64_flag = &run.kill_after;
      u64_value = arg + 13;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      Usage(argv[0]);
      return 2;
    } else {
      positional.push_back(arg);
    }
    if (u64_flag != nullptr && !ParseUnsigned(u64_value, u64_flag)) {
      std::fprintf(stderr,
                   "error: %.*s expects a non-negative integer, got \"%s\"\n",
                   static_cast<int>(u64_value - arg - 1), arg, u64_value);
      return 2;
    }
  }
  if (run.threads == 0) {
    std::fprintf(stderr, "error: --threads must be at least 1\n");
    return 2;
  }
  // Arm fault injection before any sink or driver touches a file. The
  // failpoint seed forks off --seed so drills are reproducible; the env
  // var reaches runs the harness cannot pass flags to.
  {
    const Status armed = failpoints_set
                             ? ArmFailpoints(failpoints, run.seed)
                             : ArmFailpointsFromEnv(run.seed);
    if (!armed.ok()) {
      std::fprintf(stderr, "error: %s\n", armed.ToString().c_str());
      return 2;
    }
    if (AnyFailpointArmed()) std::atexit(PrintFailpointReport);
  }
  if (!sink_text.empty() &&
      (!algo.empty() || !estimator_name.empty() || !spec.substrate.empty())) {
    std::fprintf(stderr,
                 "error: --sink replaces --algo/--estimator/--substrate; "
                 "give one or the other\n");
    return 2;
  }
  if (!algo.empty() && !estimator_name.empty()) {
    std::fprintf(stderr, "error: --algo and --estimator are exclusive\n");
    return 2;
  }
  // --sink carries its own window/k keys, so the positionals become an
  // optional override there; every other mode still requires them.
  const bool have_positionals = positional.size() == 2;
  if (!have_positionals && (sink_text.empty() || !positional.empty())) {
    Usage(argv[0]);
    return 2;
  }
  uint64_t window = 0;
  uint64_t k = 0;
  if (have_positionals) {
    const char* const names[] = {"<window>", "<k>"};
    uint64_t* const values[] = {&window, &k};
    for (int i = 0; i < 2; ++i) {
      if (!ParseUnsigned(positional[i], values[i]) || *values[i] < 1 ||
          *values[i] > static_cast<uint64_t>(INT64_MAX)) {
        std::fprintf(stderr,
                     "error: %s expects a positive integer, got \"%s\"\n",
                     names[i], positional[i]);
        return 2;
      }
    }
  }
  if ((run.resume || run.kill_after > 0) && run.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "error: --resume/--kill-after require --checkpoint-dir\n");
    return 2;
  }

  // --workload / --replay-trace synthesize the stream up front; the
  // checkpoint cadence is defined over a PARSED input stream, so the two
  // modes don't compose (record a trace and replay the file instead).
  run.synthesized = !workload.empty() || !replay_trace.empty();
  if (run.synthesized) {
    if (!workload.empty() && !replay_trace.empty()) {
      std::fprintf(stderr,
                   "error: --workload and --replay-trace are exclusive\n");
      return 2;
    }
    if (!run.file.empty()) {
      std::fprintf(stderr,
                   "error: --workload/--replay-trace replace --file\n");
      return 2;
    }
    if (!run.checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "error: --workload/--replay-trace are incompatible with "
                   "checkpointing\n");
      return 2;
    }
  }
  if (!record_trace.empty() && workload.empty()) {
    std::fprintf(stderr, "error: --record-trace requires --workload\n");
    return 2;
  }
  if (!replay_trace.empty()) {
    auto read = ReadTrace(replay_trace);
    if (!read.ok()) return Fail(read.status());
    run.items = std::move(read).ValueOrDie();
    std::fprintf(stderr, "replay: %zu events from %s\n", run.items.size(),
                 replay_trace.c_str());
  } else if (!workload.empty()) {
    auto gen = WorkloadGenerator::Create(workload, run.seed);
    if (!gen.ok()) return Fail(gen.status(), 2);
    run.items = std::move(gen).ValueOrDie()->Take(workload_items);
    if (!record_trace.empty()) {
      if (Status status = WriteTrace(record_trace, run.items); !status.ok()) {
        return Fail(status);
      }
      std::fprintf(stderr, "trace: %zu events recorded to %s\n",
                   run.items.size(), record_trace.c_str());
    }
  }

  // Resolve the flags into ONE SinkSpec — the --sink grammar directly, or
  // the --algo/--estimator aliases lifted through the same structure.
  if (!sink_text.empty()) {
    auto parsed = ParseSinkSpec(sink_text);
    if (!parsed.ok()) return Fail(parsed.status(), 2);
    spec = std::move(parsed).ValueOrDie();
  } else {
    spec.name = !estimator_name.empty() ? estimator_name
                : !algo.empty()         ? algo
                                        : "bop-seq-swor";
    spec.seed = run.seed;
    spec.moment = static_cast<uint32_t>(moment);
    spec.num_vertices = static_cast<uint32_t>(vertices);
  }
  if (have_positionals) {
    spec.window_n = window;
    spec.window_t = static_cast<Timestamp>(window);
    spec.k = k;
    spec.r = k;
  }
  if (auto kind = SinkKindOf(spec.name); !kind.ok()) {
    return Fail(kind.status(), 2);
  }
  auto model = SinkWindowModel(spec);
  if (!model.ok()) return Fail(model.status(), 2);
  const bool timestamped = model.value() == WindowModel::kTimestamp;

  if (run.keyed) {
    // The keyed engine's persistence story is its own spill directory;
    // the flat single-sink checkpoint envelope does not describe it.
    if (!run.checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "error: --keys is incompatible with --checkpoint-dir/"
                   "--resume (use --key-budget + --spill-dir)\n");
      return 2;
    }
    if (run.partition == "chunks") {
      std::fprintf(stderr,
                   "error: keyed sharding must keep each key on one "
                   "engine; --partition=chunks is incompatible with "
                   "--keys\n");
      return 2;
    }
    keyed.spec = spec;
    if (key_io_retries > 0) {
      keyed.io_retry.max_attempts = static_cast<uint32_t>(key_io_retries);
    }
  } else if (!keyed.spill_dir.empty() || keyed.memory_budget_bytes > 0 ||
             keyed.idle_ttl > 0 || keyed.degrade != KeyedDegradeMode::kBlock ||
             key_io_retries > 0) {
    std::fprintf(stderr,
                 "error: --key-budget/--key-ttl/--spill-dir/--key-degrade/"
                 "--key-io-retries require --keys\n");
    return 2;
  }
  return Run(run, spec, keyed, timestamped);
}
