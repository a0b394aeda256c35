#include "stamp/workloads.hpp"

namespace seer::stamp {

// Calibration note. The shapes the specs below are steered toward (see
// EXPERIMENTS.md for the resulting numbers):
//   * genome / intruder / vacation: conflicts concentrated on specific
//     atomic-block pairs -> Seer's fine-grained serialization gives the
//     paper's 2-2.5x peak wins at 8 threads;
//   * kmeans-high vs -low: same program, hotter vs cooler cluster-center
//     table;
//   * ssca2: tiny uniform transactions, near-linear for everyone;
//   * yada: long, capacity-straddling cavities -> sub-1x speedups, SMT
//     capacity pressure where core locks matter.
// A pairwise conflict probability between concurrent instances follows the
// birthday bound p ~ 1 - exp(-w_a * f_b / L) for w_a written lines against
// f_b touched lines in a region of L lines; hot regions (small L or high
// Zipf skew) are what make specific pairs contend.

WorkloadSpec genome_spec() {
  // Genome assembly: phase 1 deduplicates DNA segments in a shared hash
  // set; phase 2 links unique segments into contigs. Conflicts concentrate
  // on the contig-linking block (hot append regions), while hash inserts
  // conflict only on skewed buckets.
  WorkloadSpec w;
  w.name = "genome";
  w.regions = {
      {.name = "segment_hash", .lines = 2048, .zipf_skew = 0.8},
      {.name = "duplicate_flags", .lines = 64, .zipf_skew = 0.0},
      {.name = "contig_links", .lines = 512, .zipf_skew = 0.6},
  };
  w.types = {
      {.name = "insert_segment",
       .duration_mean = 1100,
       .duration_jitter = 0.3,
       .accesses = {{.region = 0, .reads = 6, .writes = 2}}},
      {.name = "dedup_lookup",
       .duration_mean = 700,
       .duration_jitter = 0.3,
       .accesses = {{.region = 0, .reads = 8, .writes = 0},
                    {.region = 1, .reads = 2, .writes = 1}}},
      {.name = "link_contig",
       .duration_mean = 2000,
       .duration_jitter = 0.4,
       .accesses = {{.region = 0, .reads = 150, .writes = 0},
                    {.region = 2, .reads = 10, .writes = 2}}},
  };
  w.phases = {
      {.fraction = 0.45, .mix = {8, 2, 0}},  // dedup phase
      {.fraction = 0.55, .mix = {1, 2, 7}},  // assembly phase
  };
  w.think_mean = 400;
  return w;
}

WorkloadSpec intruder_spec() {
  // Network intrusion detection: capture pops packet fragments off one
  // shared FIFO (two hot head/tail lines — near-certain conflicts between
  // concurrent captures), reassembly stitches fragments in a shared map,
  // detection reads a decision dictionary. The scheduling win is keeping
  // capture serialized without strangling reassemble/detect.
  // Each stage contends mostly with ITSELF (queue head; fragment-map
  // buckets; result list) and barely across stages — the structure that
  // separates fine-grained scheduling (three parallel serialization lanes)
  // from SCM's single auxiliary lock (one lane for every aborter).
  WorkloadSpec w;
  w.name = "intruder";
  w.regions = {
      {.name = "packet_queue_head", .lines = 4, .zipf_skew = 0.0},
      {.name = "capture_staging", .lines = 64, .zipf_skew = 0.0, .per_thread = true},
      {.name = "fragment_map", .lines = 192, .zipf_skew = 0.3},
      {.name = "decision_dictionary", .lines = 1024, .zipf_skew = 0.8},
      {.name = "result_list", .lines = 24, .zipf_skew = 0.0},
  };
  w.types = {
      {.name = "capture",
       .duration_mean = 350,
       .duration_jitter = 0.25,
       .accesses = {{.region = 0, .reads = 1, .writes = 1},
                    {.region = 1, .reads = 2, .writes = 2}}},
      {.name = "reassemble",
       .duration_mean = 1500,
       .duration_jitter = 0.4,
       .accesses = {{.region = 2, .reads = 16, .writes = 6},
                    {.region = 3, .reads = 6, .writes = 0}}},
      {.name = "detect",
       .duration_mean = 900,
       .duration_jitter = 0.3,
       .accesses = {{.region = 3, .reads = 10, .writes = 0},
                    {.region = 4, .reads = 2, .writes = 2}}},
  };
  w.phases = {{.fraction = 1.0, .mix = {4, 2.5, 3.5}}};
  w.think_mean = 300;
  return w;
}

namespace {

WorkloadSpec kmeans_spec(const char* name, std::uint32_t center_lines) {
  // K-means clustering: assignment scans a thread-private slice of the
  // observation matrix (no cross-thread conflicts, but real capacity
  // occupancy), center updates read-modify-write the shared centroid
  // table. "high" contention = few clusters (hot small table), "low" =
  // many clusters.
  WorkloadSpec w;
  w.name = name;
  w.regions = {
      {.name = "observations", .lines = 1024, .zipf_skew = 0.0, .per_thread = true},
      {.name = "centers", .lines = center_lines, .zipf_skew = 0.3},
  };
  w.types = {
      {.name = "assign_points",
       .duration_mean = 2400,
       .duration_jitter = 0.3,
       .accesses = {{.region = 0, .reads = 100, .writes = 8},
                    {.region = 1, .reads = 4, .writes = 0}}},
      {.name = "update_centers",
       .duration_mean = 450,
       .duration_jitter = 0.3,
       .accesses = {{.region = 1, .reads = 8, .writes = 4}}},
  };
  w.phases = {{.fraction = 1.0, .mix = {5, 5}}};
  w.think_mean = 200;
  return w;
}

}  // namespace

WorkloadSpec kmeans_high_spec() { return kmeans_spec("kmeans-high", 16); }
WorkloadSpec kmeans_low_spec() { return kmeans_spec("kmeans-low", 192); }

WorkloadSpec ssca2_spec() {
  // SSCA2 (kernel only, as in the paper): tiny graph-construction
  // transactions over a huge uniformly-accessed adjacency structure —
  // conflicts are vanishingly rare and everything should scale.
  WorkloadSpec w;
  w.name = "ssca2";
  w.regions = {
      {.name = "adjacency_arrays", .lines = 65536, .zipf_skew = 0.0},
      {.name = "weight_arrays", .lines = 32768, .zipf_skew = 0.0},
  };
  w.types = {
      {.name = "add_edge",
       .duration_mean = 260,
       .duration_jitter = 0.25,
       .accesses = {{.region = 0, .reads = 3, .writes = 2}}},
      {.name = "set_weight",
       .duration_mean = 200,
       .duration_jitter = 0.25,
       .accesses = {{.region = 1, .reads = 2, .writes = 1}}},
  };
  w.phases = {{.fraction = 1.0, .mix = {6, 4}}};
  w.think_mean = 150;
  return w;
}

namespace {

WorkloadSpec vacation_spec(const char* name, std::uint32_t hot_lines,
                           std::uint16_t idx_reads, std::uint16_t hot_writes) {
  // Travel reservation system: three relation trees (flights, rooms, cars)
  // plus a customer table. A reservation walks a large slice of each
  // relation's index (bulk reads -> genuine capacity pressure: alone it
  // fits the per-core transactional budget, but NOT when an SMT sibling is
  // simultaneously transactional) and then updates a few Zipf-popular
  // reservation heads (targeted conflicts). "high" = hotter heads and
  // wider queries, as in STAMP's vacation-high.
  WorkloadSpec w;
  w.name = name;
  w.regions = {
      {.name = "flights_index", .lines = 2048, .zipf_skew = 0.0},
      {.name = "rooms_index", .lines = 2048, .zipf_skew = 0.0},
      {.name = "cars_index", .lines = 2048, .zipf_skew = 0.0},
      {.name = "flights_hot", .lines = hot_lines, .zipf_skew = 0.5},
      {.name = "rooms_hot", .lines = hot_lines, .zipf_skew = 0.5},
      {.name = "cars_hot", .lines = hot_lines, .zipf_skew = 0.5},
      {.name = "customers", .lines = 1024, .zipf_skew = 0.5},
  };
  w.types = {
      {.name = "make_reservation",
       .duration_mean = 1700,
       .duration_jitter = 0.35,
       .accesses = {{.region = 0, .reads = idx_reads, .writes = 0},
                    {.region = 1, .reads = idx_reads, .writes = 0},
                    {.region = 2, .reads = idx_reads, .writes = 0},
                    {.region = 3, .reads = 2, .writes = hot_writes},
                    {.region = 4, .reads = 2, .writes = hot_writes},
                    {.region = 5, .reads = 2, .writes = hot_writes}}},
      {.name = "delete_customer",
       .duration_mean = 1300,
       .duration_jitter = 0.3,
       .accesses = {{.region = 6, .reads = 8, .writes = 4},
                    {.region = 0, .reads = 10, .writes = 0}}},
      {.name = "update_tables",
       .duration_mean = 1000,
       .duration_jitter = 0.3,
       .accesses = {{.region = 0, .reads = 20, .writes = 0},
                    {.region = 3, .reads = 2, .writes = 2},
                    {.region = 4, .reads = 2, .writes = 2}}},
  };
  w.phases = {{.fraction = 1.0, .mix = {85, 5, 10}}};
  w.think_mean = 300;
  return w;
}

}  // namespace

WorkloadSpec vacation_high_spec() { return vacation_spec("vacation-high", 192, 80, 1); }
WorkloadSpec vacation_low_spec() { return vacation_spec("vacation-low", 512, 55, 1); }

WorkloadSpec yada_spec() {
  // Yada (Delaunay mesh refinement): cavities are large — a typical
  // refinement sits just under the per-core transactional budget (so it
  // fits alone but NOT when an SMT sibling shares the core: core-lock
  // territory), and a tail of big cavities exceeds it outright (guaranteed
  // fallback). Cavities also genuinely overlap, so conflicts are frequent
  // and overall speedup stays below 1 as in the paper.
  WorkloadSpec w;
  w.name = "yada";
  w.regions = {
      {.name = "mesh", .lines = 524288, .zipf_skew = 0.0},
      {.name = "work_heap", .lines = 48, .zipf_skew = 0.4},
  };
  w.types = {
      {.name = "refine_cavity",
       .duration_mean = 6000,
       .duration_jitter = 0.35,
       .accesses = {{.region = 0, .reads = 250, .writes = 100},
                    {.region = 1, .reads = 2, .writes = 2}}},
      {.name = "refine_large_cavity",
       .duration_mean = 9500,
       .duration_jitter = 0.3,
       .accesses = {{.region = 0, .reads = 380, .writes = 180},
                    {.region = 1, .reads = 2, .writes = 2}}},
      {.name = "heap_maintenance",
       .duration_mean = 500,
       .duration_jitter = 0.3,
       .accesses = {{.region = 1, .reads = 4, .writes = 2}}},
  };
  w.phases = {{.fraction = 1.0, .mix = {70, 10, 20}}};
  w.think_mean = 500;
  return w;
}

const std::vector<WorkloadInfo>& all_workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"genome", genome_spec, 4000},
      {"intruder", intruder_spec, 5000},
      {"kmeans-high", kmeans_high_spec, 4000},
      {"kmeans-low", kmeans_low_spec, 4000},
      {"ssca2", ssca2_spec, 8000},
      {"vacation-high", vacation_high_spec, 3000},
      {"vacation-low", vacation_low_spec, 3000},
      {"yada", yada_spec, 1200},
  };
  return kAll;
}

}  // namespace seer::stamp
