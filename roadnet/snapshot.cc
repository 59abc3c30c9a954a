#include "roadnet/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

namespace structride {

namespace {

constexpr char kMagic[8] = {'S', 'R', 'S', 'N', 'A', 'P', '1', '\0'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 64;
constexpr size_t kSectionAlign = 4096;
constexpr uint32_t kMaxSections = 64;

// Section ids (see snapshot.h).
enum SectionId : uint32_t {
  kPositions = 1,
  kCsrOffsets = 2,
  kCsrArcs = 3,
  kHlOffsets = 4,
  kHlRanks = 5,
  kHlDists = 6,
  kChUpOffsets = 7,
  kChUpArcs = 8,
  kChRank = 9,
};

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t num_sections;
  uint64_t checksum;   ///< FNV-1a64 over bytes [kHeaderBytes, file_size)
  uint64_t file_size;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint64_t hl_total_entries;
  uint64_t ch_num_shortcuts;
};
static_assert(sizeof(Header) == kHeaderBytes, "header must be 64 bytes");

struct SectionEntry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;  ///< absolute file offset, kSectionAlign-aligned
  uint64_t size;    ///< payload bytes (padding after it is not counted)
};
static_assert(sizeof(SectionEntry) == 24, "section entry must be 24 bytes");

// Both arc structs serialize as 16 raw bytes with the 4 padding bytes
// zeroed by the writer, so files are byte-reproducible.
static_assert(sizeof(RoadNetwork::Arc) == 16, "arc layout changed");
static_assert(offsetof(RoadNetwork::Arc, to) == 0, "arc layout changed");
static_assert(offsetof(RoadNetwork::Arc, cost) == 8, "arc layout changed");
static_assert(sizeof(ContractionHierarchies::Arc) == 16, "arc layout changed");
static_assert(offsetof(ContractionHierarchies::Arc, to) == 0,
              "arc layout changed");
static_assert(offsetof(ContractionHierarchies::Arc, cost) == 8,
              "arc layout changed");
static_assert(sizeof(Point) == 16, "point layout changed");

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(uint64_t state, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    state ^= data[i];
    state *= kFnvPrime;
  }
  return state;
}

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) / a * a; }

// ------------------------------------------------------------- writing ----

// Streams bytes to a FILE while folding everything after the header into
// the running checksum, so the writer never holds the whole file in memory.
struct ChecksummedWriter {
  FILE* f;
  uint64_t checksum = kFnvOffset;
  size_t written = 0;
  bool failed = false;

  void Write(const void* data, size_t size) {
    if (failed || size == 0) return;
    if (std::fwrite(data, 1, size, f) != size) {
      failed = true;
      return;
    }
    if (written + size > kHeaderBytes) {
      size_t skip = written < kHeaderBytes ? kHeaderBytes - written : 0;
      checksum = Fnv1a(checksum, static_cast<const uint8_t*>(data) + skip,
                       size - skip);
    }
    written += size;
  }

  void PadTo(size_t offset) {
    static const uint8_t zeros[4096] = {0};
    while (!failed && written < offset) {
      size_t chunk = offset - written;
      if (chunk > sizeof(zeros)) chunk = sizeof(zeros);
      Write(zeros, chunk);
    }
  }
};

// Re-packs an arc array with the struct padding bytes zeroed.
template <typename ArcT>
std::vector<uint8_t> PackArcs(Span<const ArcT> arcs) {
  std::vector<uint8_t> bytes(arcs.size() * sizeof(ArcT), 0);
  for (size_t i = 0; i < arcs.size(); ++i) {
    std::memcpy(bytes.data() + i * sizeof(ArcT), &arcs[i].to,
                sizeof(arcs[i].to));
    std::memcpy(bytes.data() + i * sizeof(ArcT) + 8, &arcs[i].cost,
                sizeof(arcs[i].cost));
  }
  return bytes;
}

}  // namespace

// --------------------------------------------------------- GraphSource ----

GraphSource::~GraphSource() {
  if (data_ == nullptr) return;
  if (mmapped_) {
    ::munmap(data_, size_);
  } else {
    delete[] data_;
  }
}

std::shared_ptr<GraphSource> GraphSource::ReadFile(const std::string& path,
                                                   std::string* error) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return nullptr;
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    *error = "cannot stat " + path;
    return nullptr;
  }
  auto src = std::shared_ptr<GraphSource>(new GraphSource());
  src->size_ = static_cast<size_t>(size);
  src->data_ = new uint8_t[src->size_ > 0 ? src->size_ : 1];
  size_t got = std::fread(src->data_, 1, src->size_, f);
  std::fclose(f);
  if (got != src->size_) {
    *error = "short read on " + path;
    return nullptr;
  }
  return src;
}

std::shared_ptr<GraphSource> GraphSource::MmapFile(const std::string& path,
                                                   std::string* error) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *error = "cannot open " + path;
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    *error = "cannot stat " + path;
    return nullptr;
  }
  auto src = std::shared_ptr<GraphSource>(new GraphSource());
  src->size_ = static_cast<size_t>(st.st_size);
  src->mmapped_ = true;
  if (src->size_ == 0) {
    src->data_ = nullptr;
    src->mmapped_ = false;
    ::close(fd);
    return src;
  }
  void* map = ::mmap(nullptr, src->size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    *error = "mmap failed on " + path;
    return nullptr;
  }
  src->data_ = static_cast<uint8_t*>(map);
  return src;
}

// -------------------------------------------------------------- writer ----

bool WriteGraphSnapshot(const RoadNetwork& net,
                        const SnapshotWriteOptions& options,
                        const std::string& path, std::string* error) {
  Span<const Point> positions = net.positions();
  Span<const uint32_t> csr_offsets = net.csr_offsets();  // freezes if needed
  Span<const RoadNetwork::Arc> csr_arcs = net.csr_arcs();

  struct PlannedSection {
    uint32_t id;
    const void* data;
    size_t size;
  };
  std::vector<PlannedSection> sections;
  std::vector<uint8_t> packed_csr_arcs =
      PackArcs<RoadNetwork::Arc>(csr_arcs);
  sections.push_back({kPositions, positions.data(),
                      positions.size() * sizeof(Point)});
  sections.push_back({kCsrOffsets, csr_offsets.data(),
                      csr_offsets.size() * sizeof(uint32_t)});
  sections.push_back(
      {kCsrArcs, packed_csr_arcs.data(), packed_csr_arcs.size()});

  std::vector<uint8_t> packed_up_arcs;
  if (options.hub_labels != nullptr) {
    const HubLabeling& hl = *options.hub_labels;
    sections.push_back({kHlOffsets, hl.label_offsets().data(),
                        hl.label_offsets().size() * sizeof(uint32_t)});
    sections.push_back({kHlRanks, hl.rank_plane().data(),
                        hl.rank_plane().size() * sizeof(int32_t)});
    sections.push_back({kHlDists, hl.dist_plane().data(),
                        hl.dist_plane().size() * sizeof(double)});
  }
  if (options.ch != nullptr) {
    const ContractionHierarchies& ch = *options.ch;
    packed_up_arcs = PackArcs<ContractionHierarchies::Arc>(ch.up_arcs());
    sections.push_back({kChUpOffsets, ch.up_offsets().data(),
                        ch.up_offsets().size() * sizeof(uint32_t)});
    sections.push_back(
        {kChUpArcs, packed_up_arcs.data(), packed_up_arcs.size()});
    sections.push_back({kChRank, ch.node_ranks().data(),
                        ch.node_ranks().size() * sizeof(int32_t)});
  }

  // Lay out: header, table, then page-aligned sections.
  std::vector<SectionEntry> table(sections.size());
  size_t cursor = kHeaderBytes + sections.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < sections.size(); ++i) {
    cursor = AlignUp(cursor, kSectionAlign);
    table[i] = {sections[i].id, 0, cursor, sections[i].size};
    cursor += sections[i].size;
  }
  const size_t file_size = cursor;

  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  ChecksummedWriter w{f};
  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.num_sections = static_cast<uint32_t>(sections.size());
  header.checksum = 0;  // patched below
  header.file_size = file_size;
  header.num_nodes = net.num_nodes();
  header.num_edges = net.num_edges();
  header.hl_total_entries = options.hub_labels != nullptr
                                ? options.hub_labels->TotalLabelEntries()
                                : 0;
  header.ch_num_shortcuts =
      options.ch != nullptr ? options.ch->num_shortcuts() : 0;
  w.Write(&header, sizeof(header));
  w.Write(table.data(), table.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    w.PadTo(table[i].offset);
    w.Write(sections[i].data, sections[i].size);
  }
  if (w.failed) {
    std::fclose(f);
    *error = "write failed on " + path;
    return false;
  }
  // Patch the checksum now that every post-header byte has been folded in.
  header.checksum = w.checksum;
  std::fseek(f, 0, SEEK_SET);
  bool ok = std::fwrite(&header, 1, sizeof(header), f) == sizeof(header);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    *error = "write failed on " + path;
    return false;
  }
  return true;
}

// -------------------------------------------------------------- loader ----

namespace {

// Typed view of one section, bounds-checked before construction.
struct SectionView {
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool present = false;
};

bool FindSections(const uint8_t* base, size_t file_size, const Header& header,
                  SectionView out[10], std::string* error) {
  const size_t table_off = kHeaderBytes;
  const size_t table_bytes = header.num_sections * sizeof(SectionEntry);
  for (uint32_t i = 0; i < header.num_sections; ++i) {
    SectionEntry entry;
    std::memcpy(&entry, base + table_off + i * sizeof(SectionEntry),
                sizeof(entry));
    // Overflow-safe bounds: offset and size each checked against file_size
    // before the sum is formed.
    if (entry.offset < table_off + table_bytes || entry.offset > file_size ||
        entry.size > file_size - entry.offset) {
      *error = "section " + std::to_string(entry.id) +
               " is out of bounds (offset " + std::to_string(entry.offset) +
               ", size " + std::to_string(entry.size) + ", file " +
               std::to_string(file_size) + ")";
      return false;
    }
    if (entry.offset % kSectionAlign != 0) {
      *error = "section " + std::to_string(entry.id) +
               " is not page-aligned (offset " +
               std::to_string(entry.offset) + ")";
      return false;
    }
    if (entry.id == 0 || entry.id > 9) continue;  // unknown: skip, forward-compat
    if (out[entry.id].present) {
      *error = "duplicate section " + std::to_string(entry.id);
      return false;
    }
    out[entry.id] = {base + entry.offset, entry.size, true};
  }
  return true;
}

bool ExpectSize(const SectionView& s, uint32_t id, size_t expected,
                std::string* error) {
  if (s.size != expected) {
    *error = "section " + std::to_string(id) + " has " +
             std::to_string(s.size) + " bytes, expected " +
             std::to_string(expected);
    return false;
  }
  return true;
}

// Validates a CSR offsets/arcs pair: offsets monotone, final offset equal
// to the arc count, every target in [0, n).
template <typename ArcT>
bool ValidateCsr(Span<const uint32_t> offsets, Span<const ArcT> arcs,
                 size_t num_nodes, const char* what, std::string* error) {
  if (offsets.size() != num_nodes + 1 || offsets[0] != 0) {
    *error = std::string(what) + " offsets malformed";
    return false;
  }
  for (size_t v = 0; v < num_nodes; ++v) {
    if (offsets[v + 1] < offsets[v]) {
      *error = std::string(what) + " offsets not monotone at node " +
               std::to_string(v);
      return false;
    }
  }
  if (offsets[num_nodes] != arcs.size()) {
    *error = std::string(what) + " offsets end at " +
             std::to_string(offsets[num_nodes]) + " but the arc array has " +
             std::to_string(arcs.size()) + " entries";
    return false;
  }
  for (size_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].to < 0 || static_cast<size_t>(arcs[i].to) >= num_nodes) {
      *error = std::string(what) + " arc " + std::to_string(i) +
               " targets out-of-range node " + std::to_string(arcs[i].to);
      return false;
    }
  }
  return true;
}

}  // namespace

bool LoadGraphSnapshot(const std::string& path,
                       const SnapshotLoadOptions& options, GraphBundle* out,
                       std::string* error) {
  std::shared_ptr<GraphSource> src = options.use_mmap
                                         ? GraphSource::MmapFile(path, error)
                                         : GraphSource::ReadFile(path, error);
  if (src == nullptr) return false;
  const uint8_t* base = src->data();
  const size_t file_size = src->size();

  if (file_size < kHeaderBytes) {
    *error = path + ": too small to hold a snapshot header (" +
             std::to_string(file_size) + " bytes)";
    return false;
  }
  Header header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    *error = path + ": not a structride snapshot (bad magic)";
    return false;
  }
  if (header.version != kVersion) {
    *error = path + ": unsupported snapshot version " +
             std::to_string(header.version);
    return false;
  }
  if (header.file_size != file_size) {
    *error = path + ": truncated or padded (header says " +
             std::to_string(header.file_size) + " bytes, file has " +
             std::to_string(file_size) + ")";
    return false;
  }
  if (header.num_sections > kMaxSections ||
      header.num_sections * sizeof(SectionEntry) >
          file_size - kHeaderBytes) {
    *error = path + ": section table does not fit (" +
             std::to_string(header.num_sections) + " sections)";
    return false;
  }
  const uint64_t checksum =
      Fnv1a(kFnvOffset, base + kHeaderBytes, file_size - kHeaderBytes);
  if (checksum != header.checksum) {
    *error = path + ": checksum mismatch (corrupt file)";
    return false;
  }

  SectionView sections[10];
  if (!FindSections(base, file_size, header, sections, error)) {
    *error = path + ": " + *error;
    return false;
  }

  const size_t n = static_cast<size_t>(header.num_nodes);
  const size_t m = static_cast<size_t>(header.num_edges);
  // Shape sanity before any multiplication can overflow: the largest
  // per-node section is 16 bytes/entry, so n and m must fit the file.
  if (n > file_size || m > file_size) {
    *error = path + ": implausible node/edge counts";
    return false;
  }

  // Mandatory graph sections.
  if (!sections[kPositions].present || !sections[kCsrOffsets].present ||
      !sections[kCsrArcs].present) {
    *error = path + ": missing a mandatory graph section";
    return false;
  }
  if (!ExpectSize(sections[kPositions], kPositions, n * sizeof(Point),
                  error) ||
      !ExpectSize(sections[kCsrOffsets], kCsrOffsets,
                  (n + 1) * sizeof(uint32_t), error) ||
      !ExpectSize(sections[kCsrArcs], kCsrArcs,
                  2 * m * sizeof(RoadNetwork::Arc), error)) {
    *error = path + ": " + *error;
    return false;
  }
  Span<const Point> positions(
      reinterpret_cast<const Point*>(sections[kPositions].data), n);
  Span<const uint32_t> csr_offsets(
      reinterpret_cast<const uint32_t*>(sections[kCsrOffsets].data), n + 1);
  Span<const RoadNetwork::Arc> csr_arcs(
      reinterpret_cast<const RoadNetwork::Arc*>(sections[kCsrArcs].data),
      2 * m);
  if (!ValidateCsr(csr_offsets, csr_arcs, n, "graph", error)) {
    *error = path + ": " + *error;
    return false;
  }

  // Optional hub-label arena: all three sections or none.
  const bool has_hl = sections[kHlOffsets].present ||
                      sections[kHlRanks].present ||
                      sections[kHlDists].present;
  std::unique_ptr<HubLabeling> hub_labels;
  if (has_hl) {
    if (!sections[kHlOffsets].present || !sections[kHlRanks].present ||
        !sections[kHlDists].present) {
      *error = path + ": partial hub-label sections";
      return false;
    }
    const size_t total = static_cast<size_t>(header.hl_total_entries);
    if (total > file_size) {
      *error = path + ": implausible hub-label entry count";
      return false;
    }
    const size_t plane = total + n;  // one sentinel per node
    if (!ExpectSize(sections[kHlOffsets], kHlOffsets, n * sizeof(uint32_t),
                    error) ||
        !ExpectSize(sections[kHlRanks], kHlRanks, plane * sizeof(int32_t),
                    error) ||
        !ExpectSize(sections[kHlDists], kHlDists, plane * sizeof(double),
                    error)) {
      *error = path + ": " + *error;
      return false;
    }
    Span<const uint32_t> hl_offsets(
        reinterpret_cast<const uint32_t*>(sections[kHlOffsets].data), n);
    Span<const int32_t> hl_ranks(
        reinterpret_cast<const int32_t*>(sections[kHlRanks].data), plane);
    Span<const double> hl_dists(
        reinterpret_cast<const double*>(sections[kHlDists].data), plane);
    // Memory-safety boundary: every hub-label query walk (pin, unpin,
    // gather) starts at a run start and stops on the next sentinel, and
    // indexes the n-entry scratch by each rank before it. So every run start
    // must be in range, every rank in [0, n) or the sentinel, and the plane
    // must end on a sentinel so no walk escapes it. Runs need not be
    // contiguous or in node order: no walk reads a run's length from the
    // next offset. Ranks must also ascend per run, as the builder writes
    // them, so a label holds each hub once.
    if (plane == 0 || hl_ranks[plane - 1] != HubLabeling::kSentinelRank) {
      *error = path + ": hub-label plane does not end on a sentinel";
      return false;
    }
    for (size_t v = 0; v < n; ++v) {
      if (hl_offsets[v] >= plane) {
        *error = path + ": hub-label run start out of range at node " +
                 std::to_string(v);
        return false;
      }
    }
    size_t sentinels = 0;
    int32_t prev = -1;
    for (size_t k = 0; k < plane; ++k) {
      const int32_t r = hl_ranks[k];
      if (r == HubLabeling::kSentinelRank) {
        ++sentinels;
        prev = -1;
        continue;
      }
      if (r < 0 || static_cast<size_t>(r) >= n || r <= prev) {
        *error = path + ": hub-label rank plane malformed at entry " +
                 std::to_string(k);
        return false;
      }
      prev = r;
    }
    if (sentinels != n) {
      *error = path + ": hub-label plane has " + std::to_string(sentinels) +
               " sentinels for " + std::to_string(n) + " nodes";
      return false;
    }
    hub_labels = HubLabeling::FromFrozenSections(hl_offsets, hl_ranks,
                                                 hl_dists, total, src);
  }

  // Optional CH upward CSR: all three sections or none.
  const bool has_ch = sections[kChUpOffsets].present ||
                      sections[kChUpArcs].present ||
                      sections[kChRank].present;
  std::unique_ptr<ContractionHierarchies> ch;
  if (has_ch) {
    if (!sections[kChUpOffsets].present || !sections[kChUpArcs].present ||
        !sections[kChRank].present) {
      *error = path + ": partial contraction-hierarchy sections";
      return false;
    }
    if (sections[kChUpArcs].size % sizeof(ContractionHierarchies::Arc) != 0) {
      *error = path + ": CH arc section size is not a whole arc count";
      return false;
    }
    const size_t num_up =
        sections[kChUpArcs].size / sizeof(ContractionHierarchies::Arc);
    if (!ExpectSize(sections[kChUpOffsets], kChUpOffsets,
                    (n + 1) * sizeof(uint32_t), error) ||
        !ExpectSize(sections[kChRank], kChRank, n * sizeof(int32_t), error)) {
      *error = path + ": " + *error;
      return false;
    }
    Span<const uint32_t> up_offsets(
        reinterpret_cast<const uint32_t*>(sections[kChUpOffsets].data),
        n + 1);
    Span<const ContractionHierarchies::Arc> up_arcs(
        reinterpret_cast<const ContractionHierarchies::Arc*>(
            sections[kChUpArcs].data),
        num_up);
    Span<const int32_t> ch_ranks(
        reinterpret_cast<const int32_t*>(sections[kChRank].data), n);
    if (!ValidateCsr(up_offsets, up_arcs, n, "CH", error)) {
      *error = path + ": " + *error;
      return false;
    }
    for (size_t v = 0; v < n; ++v) {
      if (ch_ranks[v] < 0 || static_cast<size_t>(ch_ranks[v]) >= n) {
        *error = path + ": CH rank out of range at node " + std::to_string(v);
        return false;
      }
    }
    ch = ContractionHierarchies::FromFrozenSections(
        up_offsets, up_arcs, ch_ranks,
        static_cast<size_t>(header.ch_num_shortcuts), src);
  }

  out->network =
      RoadNetwork::FromFrozenSections(positions, csr_offsets, csr_arcs, m, src);
  out->hub_labels = std::move(hub_labels);
  out->ch = std::move(ch);
  return true;
}

bool IsSnapshotFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char head[8] = {0};
  size_t got = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  return got == sizeof(head) && std::memcmp(head, kMagic, sizeof(kMagic)) == 0;
}

bool RewriteSnapshotChecksum(const std::string& path, std::string* error) {
  std::string read_err;
  std::shared_ptr<GraphSource> src = GraphSource::ReadFile(path, &read_err);
  if (src == nullptr) {
    *error = read_err;
    return false;
  }
  if (src->size() < kHeaderBytes) {
    *error = path + ": too small to hold a snapshot header";
    return false;
  }
  const uint64_t checksum = Fnv1a(kFnvOffset, src->data() + kHeaderBytes,
                                  src->size() - kHeaderBytes);
  FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) {
    *error = "cannot open " + path + " for update";
    return false;
  }
  std::fseek(f, static_cast<long>(offsetof(Header, checksum)), SEEK_SET);
  bool ok = std::fwrite(&checksum, 1, sizeof(checksum), f) == sizeof(checksum);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    *error = "write failed on " + path;
    return false;
  }
  return true;
}

}  // namespace structride
