// GPU device specifications for the cost model.
//
// The paper evaluates on three generations of NVIDIA GPUs (GTX 1080Ti,
// RTX 2080Ti, RTX 3090). We encode each device as data: memory bandwidth,
// matmul peak throughput per precision, L2 size, kernel-launch overhead,
// and whether FP16 tensor cores exist (1080Ti has none — paper §5.2 uses
// this to show the speedup is not mostly tensor-core native).
//
// Peak FP16 matmul rates are the tensor-core FP16-multiply/FP32-accumulate
// rates; the paper's utilization numbers (8.1 TFLOP/s = 30% on 2080Ti)
// imply a ~27 TFLOP/s reference peak, which matches the 2080Ti's 26.9
// TFLOP/s FP16-FMA-with-FP32-accumulate rate.
#pragma once

#include <cctype>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ts {

struct DeviceSpec {
  std::string name;
  /// Identity of this device instance inside a multi-device group
  /// (serve::DeviceGroup stamps shard k with index k). Never consulted by
  /// the cost model — two specs differing only in device_index produce
  /// bit-identical timelines — it exists so modeled accounting (per-device
  /// serve stats, per-device cache ownership) can name the instance a
  /// piece of work ran on.
  int device_index = 0;
  // Every field has an initializer so a default-constructed spec (e.g.
  // inside a default ServerConfig) copies without reading indeterminate
  // values; the presets below set them all.
  double dram_bandwidth_gbps = 0.0;  // GB/s, effective
  double peak_fp32_tflops = 0.0;     // dense GEMM peak, FP32
  double peak_fp16_tflops = 0.0;     // dense GEMM peak, FP16 (FP32 acc.)
  bool has_fp16_tensor_cores = false;
  double l2_bytes = 0.0;            // L2 cache capacity
  double launch_overhead_us = 0.0;  // per-kernel launch + tail overhead
  double core_clock_ghz = 0.0;      // for instruction-bound kernels
  int num_sms = 0;

  // Matmul utilization model (see CostModel::mm_utilization): utilization
  // saturates with rows and with sqrt(C_in*C_out), and the half-saturation
  // points scale with the precision's peak rate — a faster unit needs a
  // larger workload to saturate. Constants are calibrated so a 2080Ti
  // reproduces the paper's Table 2 anchors: separate FP16 GEMMs on
  // SemanticKITTI-sized maps achieve ~8 TFLOP/s (30% of 26.9), adaptive
  // grouping ~12 TFLOP/s (44%). This also reproduces the §5.2 observation
  // that the TorchSparse speedup is only ~11% smaller on the 1080Ti
  // (no tensor cores): at these sizes FP16's higher peak is mostly
  // unusable, so the win comes from grouping and data movement.
  double max_mm_util = 0.90;
  double rows_half = 2755.0;  // rows at 50% of the row factor (at ref peak)
  double ch_half = 12.0;      // sqrt(Cin*Cout) half-saturation (at ref peak)

  /// Ratio of transaction-pipeline (L2/interconnect) bandwidth to DRAM
  /// bandwidth for scatter/gather kernels. A kernel issuing N transactions
  /// needs N*128/(ratio*bw) seconds of pipeline time even if the DRAM
  /// payload is smaller — this is why scalar FP16 scatter/gather only
  /// reaches ~1.3x of FP32 (Table 3) despite halving the bytes: the
  /// transaction COUNT is unchanged and the pipeline becomes the limit.
  double txn_pipeline_ratio = 0.9;

  /// Fraction of peak DRAM bandwidth achieved by scatter/gather payload
  /// traffic (irregular row accesses are latency-limited below peak).
  double gather_efficiency = 0.7;

  /// Fraction of peak DRAM bandwidth achieved by mapping kernels
  /// (dependent random hash probes / grid lookups).
  double mapping_efficiency = 0.8;
};

inline DeviceSpec gtx1080ti() {
  DeviceSpec d;
  d.name = "GTX 1080Ti";
  d.dram_bandwidth_gbps = 484.0;
  d.peak_fp32_tflops = 11.3;
  d.peak_fp16_tflops = 11.3;  // no tensor cores: FP16 matmul at FP32 rate
  d.has_fp16_tensor_cores = false;
  d.l2_bytes = 2.75 * 1024 * 1024;
  d.launch_overhead_us = 1.2;
  d.core_clock_ghz = 1.58;
  d.num_sms = 28;
  return d;
}

inline DeviceSpec rtx2080ti() {
  DeviceSpec d;
  d.name = "RTX 2080Ti";
  d.dram_bandwidth_gbps = 616.0;
  d.peak_fp32_tflops = 13.4;
  d.peak_fp16_tflops = 26.9;  // tensor cores, FP32 accumulate
  d.has_fp16_tensor_cores = true;
  d.l2_bytes = 5.5 * 1024 * 1024;
  d.launch_overhead_us = 1.0;
  d.core_clock_ghz = 1.54;
  d.num_sms = 68;
  return d;
}

inline DeviceSpec rtx3090() {
  DeviceSpec d;
  d.name = "RTX 3090";
  d.dram_bandwidth_gbps = 936.0;
  d.peak_fp32_tflops = 35.6;
  d.peak_fp16_tflops = 35.6;  // Ampere GA102: FP16 TC rate == FP32 FMA rate
                              // for dense (71 TF with sparsity, unused here)
  d.has_fp16_tensor_cores = true;
  d.l2_bytes = 6.0 * 1024 * 1024;
  d.launch_overhead_us = 0.8;
  d.core_clock_ghz = 1.70;
  d.num_sms = 82;
  return d;
}

inline std::vector<DeviceSpec> all_devices() {
  return {rtx3090(), rtx2080ti(), gtx1080ti()};
}

/// The short names the registry accepts (canonical forms; see
/// device_spec_by_name for the accepted spellings).
inline std::vector<std::string> known_device_names() {
  return {"1080ti", "2080ti", "3090"};
}

/// Named-spec registry: resolves a device name to its DeviceSpec so
/// fleets are describable as data ("which GPUs" in a config file or a
/// ServerConfig::with_fleet call, not a factory-function call site).
/// Matching is forgiving: case-insensitive, spaces/dashes/underscores
/// ignored, and an optional "gtx"/"rtx" prefix allowed — "3090",
/// "RTX 3090", and "rtx-3090" all resolve to rtx3090(). Unknown names
/// throw std::invalid_argument listing the known ones.
inline DeviceSpec device_spec_by_name(std::string_view name) {
  std::string norm;
  norm.reserve(name.size());
  for (const char c : name) {
    if (c == ' ' || c == '-' || c == '_') continue;
    norm.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (norm.rfind("gtx", 0) == 0 || norm.rfind("rtx", 0) == 0)
    norm.erase(0, 3);
  if (norm == "1080ti") return gtx1080ti();
  if (norm == "2080ti") return rtx2080ti();
  if (norm == "3090") return rtx3090();
  std::string known;
  for (const std::string& k : known_device_names()) {
    if (!known.empty()) known += ", ";
    known += "\"" + k + "\"";
  }
  throw std::invalid_argument("device_spec_by_name: unknown device \"" +
                              std::string(name) + "\" (known: " + known +
                              ")");
}

}  // namespace ts
