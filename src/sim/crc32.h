// CRC-32C (Castagnoli). Used by the DB engine to detect torn
// sectors/pages/log records after crashes (every WAL record and every
// checkpointed page), and by the trace/divergence machinery to digest
// payloads — which puts it on the hot path of every run.
#pragma once

#include <cstdint>
#include <span>

namespace rlsim {

// Production entry point: the CPU's CRC-32C instruction (x86-64 SSE4.2)
// when the host has it, slice-by-8 otherwise. Same polynomial, same output
// as the classic table-driven form for every input (pinned by
// sim_crc_test against Crc32cTableDriven), so results never depend on the
// host.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

// Slice-by-8: processes 8 input bytes per step through 8 derived tables.
// The portable fallback, and what the CRC throughput benchmark measures.
uint32_t Crc32cSlice8(std::span<const uint8_t> data, uint32_t seed = 0);

// The classic one-byte-at-a-time table-driven form. Kept as the reference
// implementation for the equivalence test and as the baseline the CRC
// throughput benchmark measures speedup against; production code calls
// Crc32c.
uint32_t Crc32cTableDriven(std::span<const uint8_t> data, uint32_t seed = 0);

}  // namespace rlsim
