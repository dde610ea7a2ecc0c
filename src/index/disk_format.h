// Binary on-disk index format (single file, mmap-friendly).
//
// Layout (all sections 8-byte aligned, little-endian, fixed-width):
//
//   [Header]            magic, counts, avg doc len
//   [TermEntry array]   num_terms entries
//   [doc-ordered postings]
//   [impact-ordered postings]
//   [block-max metadata]
//   [IntegrityFooter]   word-wide FNV-1a 64 checksums: header + one per
//                       section
//
// The paper stores each index "on disk uncompressed as a collection of
// binary files" (§5.1); we use one file with the same uncompressed fixed
// layout, which keeps the page-offset arithmetic of the I/O model simple.
//
// Integrity: a footer after the last section carries an FNV-1a 64
// checksum of the header and of each payload section, all verified at
// load. The hash folds in 8-byte words (bytes only for a short tail), so
// verifying a large index costs a fraction of a bytewise pass. A torn or bit-flipped body is rejected with a section-naming
// error instead of loading silently — which is also what makes the
// live-update merge publish crash-safe: the new segment is written to a
// temporary file, re-validated through this path, and only then renamed
// over the old one (AtomicSaveIndex). The footer lives *after* the
// sections (not in the header) so section offsets — and therefore the
// simulator's page-charging arithmetic, which models these offsets even
// for in-memory indexes — are byte-identical to the pre-checksum format;
// it is metadata read once at load time on the host, never on the query
// path, so it is also excluded from the modeled index size.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "index/inverted_index.h"

namespace sparta::index {

/// Current format: "SPARTA03" (integrity footer, word-wide checksums).
inline constexpr std::uint64_t kIndexMagic = 0x5350415254413033ULL;
/// Older formats, recognized only to produce a clearer rejection
/// message: "SPARTA01" had no checksums, "SPARTA02" checksummed bytewise.
inline constexpr std::uint64_t kIndexMagicV1 = 0x5350415254413031ULL;
inline constexpr std::uint64_t kIndexMagicV2 = 0x5350415254413032ULL;

struct SectionLayout {
  std::uint64_t term_table_offset = 0;
  std::uint64_t doc_postings_offset = 0;
  std::uint64_t impact_postings_offset = 0;
  std::uint64_t blocks_offset = 0;
  std::uint64_t total_size = 0;
};

/// Byte layout of an index with the given element counts. `total_size`
/// covers header + sections only — the on-disk file additionally carries
/// the integrity footer, which the I/O model deliberately ignores.
SectionLayout ComputeSectionLayout(std::uint64_t num_terms,
                                   std::uint64_t num_doc_postings,
                                   std::uint64_t num_impact_postings,
                                   std::uint64_t num_blocks);

/// Serialized size in bytes of the query-readable payload (header +
/// sections, excluding the integrity footer) — the footprint the
/// simulator's page-cache model uses.
std::uint64_t SerializedIndexSize(std::uint64_t num_terms,
                                  std::uint64_t num_doc_postings,
                                  std::uint64_t num_impact_postings,
                                  std::uint64_t num_blocks);

/// Writes `idx` to `path`. Returns false on I/O error.
bool SaveIndex(const InvertedIndex& idx, const std::string& path);

/// Writes `idx` to `path` crash-consistently: the bytes go to
/// `path + ".tmp"`, are flushed to stable storage, re-validated through
/// LoadIndex (checksums and all), and only then renamed into place — so
/// `path` atomically holds either the complete old index or the complete
/// new one, never a torn mix. Returns false (leaving `path` untouched and
/// the temporary removed) on any write, validation or rename failure.
bool AtomicSaveIndex(const InvertedIndex& idx, const std::string& path);

/// Memory-maps `path` and returns an index backed by the mapping.
/// Returns an empty optional on error or format mismatch.
std::optional<InvertedIndex> LoadIndex(const std::string& path);

/// As above; on failure additionally reports why in `*error` (which
/// section failed its checksum, truncation, magic mismatch, ...).
std::optional<InvertedIndex> LoadIndex(const std::string& path,
                                       std::string* error);

}  // namespace sparta::index
