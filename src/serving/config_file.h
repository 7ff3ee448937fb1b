// Text-based deployment configuration (Triton model-config style).
//
// Lets operators describe an endpoint in a small key/value file instead of
// code, e.g.:
//
//   # vit_service.cfg
//   model = vit-base
//   backend = tensorrt
//   preprocessing = gpu
//   dynamic_batching = true
//   max_batch = 64
//   max_queue_delay_us = 0
//   shed_deadline_ms = 250
//
// Unknown keys, malformed values and missing models are hard errors — a
// serving config typo should fail deployment, not silently default.
//
// Every key is declared once, in for_each_key (config_file.cpp): its name,
// its ServerConfig field and its kind (type, unit, range, spellings). Parse
// and format both walk that list.
#pragma once

#include <filesystem>
#include <string>

#include "serving/config.h"

namespace serve::serving {

/// Parses the key = value format above. Lines starting with '#' (or blank)
/// are ignored. Throws std::invalid_argument / std::out_of_range on errors.
[[nodiscard]] ServerConfig parse_server_config(const std::string& text);

/// Reads and parses a config file.
[[nodiscard]] ServerConfig load_server_config(const std::filesystem::path& path);

/// Serializes a config back to the file format (round-trips through parse).
[[nodiscard]] std::string format_server_config(const ServerConfig& config);

}  // namespace serve::serving
