// Binary serialization for point clouds, sparse tensors, and timelines.
//
// A deployment-oriented inference engine needs stable on-disk formats:
// scans captured once and replayed across engines/devices, and timelines
// exported for offline analysis. Formats are little-endian,
// magic-and-version tagged. Error contract (identical in Debug and
// Release — no asserts at this API boundary): loading validates structure
// — magic/version, element-count plausibility, truncation, packable
// coordinates, stride sanity (including (coordinate, stride) pairs that
// would overflow grid addressing when scaled back to the stride-1
// lattice), a nonzero channel count whenever points exist, and finite
// feature values — and throws std::runtime_error on malformed input;
// saving throws std::runtime_error when the stream cannot be opened or a
// write fails (full disk, failed stream), never silently truncates.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/kernel_map_cache.hpp"
#include "core/sparse_tensor.hpp"
#include "data/lidar.hpp"
#include "gpusim/timeline.hpp"

namespace ts::io {

// --- Point clouds (.tspts) ---
void save_points(std::ostream& os, const std::vector<Point3>& pts);
std::vector<Point3> load_points(std::istream& is);
void save_points_file(const std::string& path,
                      const std::vector<Point3>& pts);
std::vector<Point3> load_points_file(const std::string& path);

// --- Sparse tensors (.tsten): coords + features + stride ---
// Saving a feature-less (cost-only) tensor throws std::invalid_argument
// before anything is written (or, for the _file form, created).
void save_tensor(std::ostream& os, const SparseTensor& t);
SparseTensor load_tensor(std::istream& is);
void save_tensor_file(const std::string& path, const SparseTensor& t);
SparseTensor load_tensor_file(const std::string& path);

// --- Kernel-map cache snapshots (.tsmc): the warm-start serving tier —
// entries LRU-first with full payloads, so a restarted server (or a
// newly added shard's modeled cache) re-admits into the exact LRU/
// eviction state the saving cache had. Loading validates every
// structural claim — magic/version, truncation, per-entry payload
// plausibility, an entry larger than the snapshot's own recorded byte
// budget (impossible for a legitimately saved cache), and a payload
// whose recomputed footprint contradicts its declared one — and throws
// std::runtime_error before anything is admitted. The usual entry
// points are KernelMapCache::save_snapshot / load_snapshot; these
// expose the raw snapshot image for warm-start manifests
// (ServerConfig::warm_start, serve::DeviceGroup).
void save_map_cache(std::ostream& os, const MapCacheSnapshot& snap);
MapCacheSnapshot load_map_cache(std::istream& is);
void save_map_cache_file(const std::string& path,
                         const MapCacheSnapshot& snap);
MapCacheSnapshot load_map_cache_file(const std::string& path);

// --- Timelines -> CSV (stage, seconds) for offline analysis ---
std::string timeline_csv(const Timeline& t);

}  // namespace ts::io
