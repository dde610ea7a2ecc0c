#include "index/disk_format.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include <unistd.h>

#include "index/mmap_file.h"

namespace sparta::index {
namespace {

// Byte-identical to the SPARTA01 header (only the magic value changes):
// section offsets derive from sizeof(Header), and the simulator charges
// page I/O against those offsets even for in-memory indexes, so growing
// the header would silently shift every modeled page boundary. Integrity
// data therefore lives in the footer below, after the sections.
struct Header {
  std::uint64_t magic = kIndexMagic;
  std::uint32_t num_docs = 0;
  std::uint32_t num_terms = 0;
  std::uint64_t num_doc_postings = 0;
  std::uint64_t num_impact_postings = 0;
  std::uint64_t num_blocks = 0;
  double avg_doc_len = 0.0;
};
static_assert(sizeof(Header) % 8 == 0);

/// Trails the last section. Checked once at load time on the host; never
/// read on the query path, so it is invisible to the I/O cost model.
struct IntegrityFooter {
  /// FNV-1a 64 of the header bytes.
  std::uint64_t header_checksum = 0;
  /// FNV-1a 64 over the payload of each section, in file order: term
  /// table, doc-ordered postings, impact-ordered postings, block meta.
  std::uint64_t section_checksums[4] = {};
  /// FNV-1a 64 of this footer with this field zeroed — distinguishes
  /// "footer corrupted" from "body corrupted" in error reports.
  std::uint64_t footer_checksum = 0;
};
static_assert(sizeof(IntegrityFooter) % 8 == 0);

constexpr std::uint64_t Align8(std::uint64_t x) { return (x + 7) & ~7ULL; }

/// FNV-1a 64-bit over 8-byte words, then the tail bytes: tiny,
/// dependency-free, and plenty to catch torn writes and bit flips (this
/// is an integrity check, not an adversarial MAC). Each step is a
/// bijection of the state, so any single corrupted word changes the
/// result.
std::uint64_t Fnv1a64(const void* data, std::size_t size) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    hash ^= word;
    hash *= kPrime;
  }
  for (; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t FooterSelfChecksum(IntegrityFooter footer) {
  footer.footer_checksum = 0;
  return Fnv1a64(&footer, sizeof(footer));
}

/// RAII stdio file handle.
struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteAll(std::FILE* f, const void* data, std::size_t size) {
  return size == 0 || std::fwrite(data, 1, size, f) == size;
}

void SetError(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
}

}  // namespace

SectionLayout ComputeSectionLayout(std::uint64_t num_terms,
                                   std::uint64_t num_doc_postings,
                                   std::uint64_t num_impact_postings,
                                   std::uint64_t num_blocks) {
  SectionLayout layout;
  layout.term_table_offset = Align8(sizeof(Header));
  layout.doc_postings_offset =
      Align8(layout.term_table_offset + num_terms * sizeof(TermEntry));
  layout.impact_postings_offset = Align8(
      layout.doc_postings_offset + num_doc_postings * sizeof(Posting));
  layout.blocks_offset = Align8(layout.impact_postings_offset +
                                num_impact_postings * sizeof(Posting));
  layout.total_size = layout.blocks_offset + num_blocks * sizeof(BlockMeta);
  return layout;
}

std::uint64_t SerializedIndexSize(std::uint64_t num_terms,
                                  std::uint64_t num_doc_postings,
                                  std::uint64_t num_impact_postings,
                                  std::uint64_t num_blocks) {
  return ComputeSectionLayout(num_terms, num_doc_postings,
                              num_impact_postings, num_blocks)
      .total_size;
}

bool SaveIndex(const InvertedIndex& idx, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (!file) return false;

  Header header;
  header.num_docs = idx.num_docs();
  header.num_terms = idx.num_terms();
  header.num_doc_postings = idx.doc_postings().size();
  header.num_impact_postings = idx.impact_postings().size();
  header.num_blocks = idx.blocks().size();
  header.avg_doc_len = idx.avg_doc_len();

  const SectionLayout layout = ComputeSectionLayout(
      header.num_terms, header.num_doc_postings, header.num_impact_postings,
      header.num_blocks);

  // Collect the term table (it is stored internally; re-derive it).
  std::vector<TermEntry> terms(header.num_terms);
  for (TermId t = 0; t < header.num_terms; ++t) terms[t] = idx.Entry(t);

  IntegrityFooter footer;
  footer.header_checksum = Fnv1a64(&header, sizeof(header));
  footer.section_checksums[0] =
      Fnv1a64(terms.data(), terms.size() * sizeof(TermEntry));
  footer.section_checksums[1] =
      Fnv1a64(idx.doc_postings().data(), idx.doc_postings().size_bytes());
  footer.section_checksums[2] = Fnv1a64(idx.impact_postings().data(),
                                        idx.impact_postings().size_bytes());
  footer.section_checksums[3] =
      Fnv1a64(idx.blocks().data(), idx.blocks().size_bytes());
  footer.footer_checksum = FooterSelfChecksum(footer);

  auto pad_to = [&](std::uint64_t offset) {
    const long pos = std::ftell(file.get());
    SPARTA_CHECK(pos >= 0 &&
                 static_cast<std::uint64_t>(pos) <= offset);
    static constexpr char kZeros[8] = {};
    return WriteAll(file.get(), kZeros,
                    offset - static_cast<std::uint64_t>(pos));
  };

  if (!WriteAll(file.get(), &header, sizeof(header))) return false;
  if (!pad_to(layout.term_table_offset)) return false;
  if (!WriteAll(file.get(), terms.data(),
                terms.size() * sizeof(TermEntry))) {
    return false;
  }
  if (!pad_to(layout.doc_postings_offset)) return false;
  if (!WriteAll(file.get(), idx.doc_postings().data(),
                idx.doc_postings().size_bytes())) {
    return false;
  }
  if (!pad_to(layout.impact_postings_offset)) return false;
  if (!WriteAll(file.get(), idx.impact_postings().data(),
                idx.impact_postings().size_bytes())) {
    return false;
  }
  if (!pad_to(layout.blocks_offset)) return false;
  if (!WriteAll(file.get(), idx.blocks().data(), idx.blocks().size_bytes())) {
    return false;
  }
  return WriteAll(file.get(), &footer, sizeof(footer));
}

bool AtomicSaveIndex(const InvertedIndex& idx, const std::string& path) {
  const std::string tmp = path + ".tmp";
  if (!SaveIndex(idx, tmp)) {
    std::remove(tmp.c_str());
    return false;
  }
  // Flush the temporary to stable storage before the rename so a crash
  // between the two cannot leave `path` pointing at unwritten pages.
  {
    FilePtr file(std::fopen(tmp.c_str(), "rb+"));
    if (!file || ::fsync(::fileno(file.get())) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  // Re-validate the bytes we just wrote: a torn or short write must
  // never be promoted over a good index.
  if (!LoadIndex(tmp).has_value()) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<InvertedIndex> LoadIndex(const std::string& path) {
  return LoadIndex(path, nullptr);
}

std::optional<InvertedIndex> LoadIndex(const std::string& path,
                                       std::string* error) {
  auto mapping = std::make_unique<MmapFile>();
  if (!mapping->Open(path)) {
    SetError(error, "cannot open or map index file");
    return std::nullopt;
  }
  const auto bytes = mapping->bytes();
  if (bytes.size() < sizeof(Header)) {
    SetError(error, "file truncated: smaller than the index header");
    return std::nullopt;
  }

  Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic == kIndexMagicV1) {
    SetError(error,
             "pre-checksum SPARTA01 index; rebuild with the current format");
    return std::nullopt;
  }
  if (header.magic == kIndexMagicV2) {
    SetError(error,
             "bytewise-checksum SPARTA02 index; rebuild with the current "
             "format");
    return std::nullopt;
  }
  if (header.magic != kIndexMagic) {
    SetError(error, "bad magic: not a SPARTA03 index file");
    return std::nullopt;
  }

  const SectionLayout layout = ComputeSectionLayout(
      header.num_terms, header.num_doc_postings, header.num_impact_postings,
      header.num_blocks);
  if (bytes.size() < layout.total_size + sizeof(IntegrityFooter)) {
    SetError(error, "file truncated: sections extend past end of file");
    return std::nullopt;
  }

  IntegrityFooter footer;
  std::memcpy(&footer, bytes.data() + layout.total_size, sizeof(footer));
  if (footer.footer_checksum != FooterSelfChecksum(footer)) {
    SetError(error, "integrity footer corrupted");
    return std::nullopt;
  }
  if (footer.header_checksum != Fnv1a64(&header, sizeof(header))) {
    SetError(error, "header checksum mismatch: corrupted index header");
    return std::nullopt;
  }

  struct SectionCheck {
    const char* name;
    std::uint64_t offset;
    std::uint64_t size;
  };
  const SectionCheck sections[4] = {
      {"term table", layout.term_table_offset,
       header.num_terms * sizeof(TermEntry)},
      {"doc-ordered postings", layout.doc_postings_offset,
       header.num_doc_postings * sizeof(Posting)},
      {"impact-ordered postings", layout.impact_postings_offset,
       header.num_impact_postings * sizeof(Posting)},
      {"block metadata", layout.blocks_offset,
       header.num_blocks * sizeof(BlockMeta)},
  };
  for (int s = 0; s < 4; ++s) {
    const std::uint64_t actual =
        Fnv1a64(bytes.data() + sections[s].offset, sections[s].size);
    if (actual != footer.section_checksums[s]) {
      if (error != nullptr) {
        *error = std::string(sections[s].name) +
                 " checksum mismatch: corrupted index body";
      }
      return std::nullopt;
    }
  }

  std::vector<TermEntry> terms(header.num_terms);
  std::memcpy(terms.data(), bytes.data() + layout.term_table_offset,
              terms.size() * sizeof(TermEntry));

  // The sections are 8-byte aligned within the file and mmap returns
  // page-aligned memory, so reinterpreting is safe for these trivially
  // copyable, alignment-8 types.
  const auto* doc_ptr = reinterpret_cast<const Posting*>(
      bytes.data() + layout.doc_postings_offset);
  const auto* impact_ptr = reinterpret_cast<const Posting*>(
      bytes.data() + layout.impact_postings_offset);
  const auto* block_ptr = reinterpret_cast<const BlockMeta*>(
      bytes.data() + layout.blocks_offset);

  return InvertedIndex::FromMmap(
      header.num_docs, header.avg_doc_len, std::move(terms),
      {doc_ptr, header.num_doc_postings},
      {impact_ptr, header.num_impact_postings},
      {block_ptr, header.num_blocks}, layout.doc_postings_offset,
      layout.impact_postings_offset, std::move(mapping));
}

}  // namespace sparta::index
