// Copyright (c) swsample authors. Licensed under the MIT license.
//
// Graph motifs: triangle counting over a sliding window of edges.
//
//   build/examples/graph_motifs
//
// An edge stream where a dense community (many triangles) appears, lives
// for a while, and dissolves. The sliding estimator (Corollary 5.3) tracks
// the rise and fall of the windowed triangle count without storing the
// window; an exact counter over a full edge buffer provides ground truth.

#include <cstdio>
#include <deque>
#include <set>
#include <vector>

#include "apps/estimator_registry.h"
#include "apps/triangles.h"
#include "util/rng.h"

using namespace swsample;

namespace {

uint64_t ExactTriangles(const std::deque<uint64_t>& window, uint32_t v) {
  std::vector<uint64_t> adj(v, 0);
  std::set<uint64_t> distinct(window.begin(), window.end());
  for (uint64_t e : distinct) {
    uint32_t a, b;
    DecodeEdge(e, &a, &b);
    adj[a] |= uint64_t{1} << b;
    adj[b] |= uint64_t{1} << a;
  }
  uint64_t triangles = 0;
  for (uint32_t a = 0; a < v; ++a) {
    for (uint32_t b = a + 1; b < v; ++b) {
      if (!(adj[a] >> b & 1)) continue;
      triangles += static_cast<uint64_t>(__builtin_popcountll(
          adj[a] & adj[b] & ~((uint64_t{2} << b) - 1)));
    }
  }
  return triangles;
}

}  // namespace

int main() {
  const uint32_t v = 40;          // vertex universe (community = 0..9)
  const uint64_t n = 4096;        // edge window
  const uint64_t total = 6 * n;
  SinkSpec spec;
  spec.name = "buriol-triangles";
  spec.substrate = "bop-seq-single";
  spec.window_n = n;
  spec.r = 8192;
  spec.seed = 5;
  spec.num_vertices = v;
  auto est = CreateEstimator(spec).ValueOrDie();

  Rng rng(21);
  std::deque<uint64_t> window;
  for (uint64_t i = 0; i < total; ++i) {
    const bool community_active = i > total / 3 && i < 2 * total / 3;
    uint64_t edge;
    if (community_active && rng.Bernoulli(0.5)) {
      // Dense community on vertices 0..9: random internal edge.
      uint32_t a = static_cast<uint32_t>(rng.UniformIndex(10));
      uint32_t b;
      do {
        b = static_cast<uint32_t>(rng.UniformIndex(10));
      } while (b == a);
      edge = EncodeEdge(a, b);
    } else {
      // Sparse background on vertices 10..39.
      uint32_t a = 10 + static_cast<uint32_t>(rng.UniformIndex(v - 10));
      uint32_t b;
      do {
        b = 10 + static_cast<uint32_t>(rng.UniformIndex(v - 10));
      } while (b == a);
      edge = EncodeEdge(a, b);
    }
    est->Observe(Item{edge, i, static_cast<Timestamp>(i)});
    window.push_back(edge);
    if (window.size() > n) window.pop_front();

    if ((i + 1) % (n / 2) == 0) {
      std::printf("edge %6lu %s estimate=%8.1f exact(distinct)=%5lu\n",
                  (unsigned long)(i + 1),
                  community_active ? "[community]" : "           ",
                  est->Estimate().value,
                  (unsigned long)ExactTriangles(window, v));
    }
  }
  std::printf(
      "\nthe estimate rises while the community's triangles fill the window\n"
      "and falls back as they slide out. (Repeated window edges inflate\n"
      "the sampling estimate by a constant factor relative to the\n"
      "distinct-edge count; the tracked SHAPE is the point.)\n");
  return 0;
}
