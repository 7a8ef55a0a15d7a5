#include "trace/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

namespace odtn {
namespace {

static_assert(std::endian::native == std::endian::little,
              "snapshot codec assumes a little-endian host");
// The contacts section is one memcpy of the packed Contact array; the
// asserts pin the layout the on-disk format relies on.
static_assert(sizeof(Contact) == 24 && offsetof(Contact, u) == 0 &&
              offsetof(Contact, v) == 4 && offsetof(Contact, begin) == 8 &&
              offsetof(Contact, end) == 16);
static_assert(sizeof(NodeContact) == 24 && offsetof(NodeContact, begin) == 0 &&
              offsetof(NodeContact, end) == 8 && offsetof(NodeContact, to) == 16);

constexpr std::size_t kHeaderBytes = 104;
constexpr std::size_t kSectionAlign = 64;
constexpr std::size_t kNumSections = 3;

constexpr std::size_t align_up(std::size_t v) {
  return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

[[noreturn]] void fail(const std::string& what) {
  throw SnapshotError("snapshot: " + what);
}

/// Little-endian primitive writer into a pre-sized buffer (the section
/// offsets are known up front, so no append-only growth is needed).
struct Cursor {
  std::uint8_t* base;
  std::size_t pos = 0;

  void put_u16(std::uint16_t v) { put(&v, sizeof v); }
  void put_u32(std::uint32_t v) { put(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put(&v, sizeof v); }
  void put_f64(double v) { put(&v, sizeof v); }
  void put(const void* data, std::size_t n) {
    std::memcpy(base + pos, data, n);
    pos += n;
  }
};

struct Section {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

struct Header {
  bool directed = false;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_contacts = 0;
  std::uint64_t num_neighbors = 0;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t total_size = 0;
  Section sections[kNumSections];  // contacts, node_offsets, neighbors_by_end
};

template <typename T>
T read_pod(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

Header parse_header(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderBytes) fail("truncated header");
  std::size_t pos = 0;
  auto u16 = [&] { auto v = read_pod<std::uint16_t>(data + pos); pos += 2; return v; };
  auto u32 = [&] { auto v = read_pod<std::uint32_t>(data + pos); pos += 4; return v; };
  auto u64 = [&] { auto v = read_pod<std::uint64_t>(data + pos); pos += 8; return v; };
  auto f64 = [&] { auto v = read_pod<double>(data + pos); pos += 8; return v; };

  if (u32() != kSnapshotMagic) fail("bad magic");
  if (const std::uint16_t version = u16(); version != kSnapshotVersion)
    fail("unsupported format version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kSnapshotVersion) +
         "); re-run `odtn snapshot` on the trace to rewrite the file");
  Header h;
  const std::uint8_t directed = data[pos++];
  if (directed > 1) fail("bad directed flag");
  h.directed = directed != 0;
  if (data[pos++] != 0) fail("reserved header byte must be zero");
  h.num_nodes = u64();
  h.num_contacts = u64();
  h.num_neighbors = u64();
  h.start = f64();
  h.end = f64();
  h.total_size = u64();
  for (Section& s : h.sections) {
    s.offset = u64();
    s.size = u64();
  }
  return h;
}

/// Checks one section-table entry against the CANONICAL layout: the
/// exact size implied by the header counts and the exact 64-byte-aligned
/// offset the encoder would have chosen. Accepting only the canonical
/// layout (plus the zero-gap check in the caller) makes decode-success
/// imply encode(decode(bytes)) == bytes, which the snapshot fuzzer
/// leans on.
void check_section(const Section& s, std::uint64_t expected_offset,
                   std::uint64_t expected_size, std::uint64_t total,
                   const char* name) {
  if (s.size != expected_size)
    fail(std::string(name) + ": section size disagrees with header counts");
  if (s.offset != expected_offset)
    fail(std::string(name) + ": non-canonical section offset");
  if (s.offset > total || total - s.offset < s.size)
    fail(std::string(name) + ": section outside buffer");
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const TemporalGraph& graph) {
  const std::span<const Contact> contacts = graph.contacts();
  const std::span<const std::uint32_t> node_offsets = graph.node_offsets();
  const std::span<const NodeContact> neighbors = graph.neighbor_records();

  Section sections[kNumSections];
  const std::uint64_t sizes[kNumSections] = {
      contacts.size_bytes(), node_offsets.size() * 4, neighbors.size() * 24};
  std::size_t at = kHeaderBytes;
  for (std::size_t i = 0; i < kNumSections; ++i) {
    at = align_up(at);
    sections[i] = {at, sizes[i]};
    at += sizes[i];
  }
  const std::size_t total = at;

  std::vector<std::uint8_t> out(total, 0);  // gap/pad bytes stay zero
  Cursor w{out.data()};
  w.put_u32(kSnapshotMagic);
  w.put_u16(kSnapshotVersion);
  out[w.pos++] = graph.directed() ? 1 : 0;
  out[w.pos++] = 0;  // reserved
  w.put_u64(graph.num_nodes());
  w.put_u64(contacts.size());
  w.put_u64(neighbors.size());
  w.put_f64(graph.start_time());
  w.put_f64(graph.end_time());
  w.put_u64(total);
  for (const Section& s : sections) {
    w.put_u64(s.offset);
    w.put_u64(s.size);
  }

  // Empty sections have no bytes to copy (and their span data() may be
  // null, which memcpy must never see).
  const auto copy_section = [&](std::size_t i, const void* src,
                                std::size_t bytes) {
    if (bytes != 0) std::memcpy(out.data() + sections[i].offset, src, bytes);
  };
  copy_section(0, contacts.data(), contacts.size_bytes());
  copy_section(1, node_offsets.data(), node_offsets.size_bytes());
  // NodeContact carries 4 bytes of tail padding; write the fields
  // explicitly so the file bytes are a deterministic function of the
  // graph (the pad is already zero in `out`).
  Cursor n{out.data(), static_cast<std::size_t>(sections[2].offset)};
  for (const NodeContact& nc : neighbors) {
    n.put_f64(nc.begin);
    n.put_f64(nc.end);
    n.put_u32(nc.to);
    n.pos += 4;
  }
  return out;
}

// Cache-line aligned so the validation sweeps below keep one code layout
// whatever else is linked before this file: at a 16-mod-64 start their
// loops ran ~10% slower and less steadily on a 1M-contact load.
__attribute__((aligned(64))) TemporalGraph decode_snapshot(
    const std::uint8_t* data, std::size_t size,
    std::shared_ptr<const void> backing) {
  if (reinterpret_cast<std::uintptr_t>(data) % alignof(double) != 0)
    fail("buffer base is not 8-byte aligned");
  const Header h = parse_header(data, size);
  if (h.total_size != size)
    fail("total_size disagrees with buffer (truncated or trailing bytes)");

  // Every count is first bounded by what could possibly fit in the
  // buffer, so the expected-size arithmetic below cannot overflow.
  if (h.num_nodes > 0xFFFFFFFFull || h.num_nodes + 1 > size / 4)
    fail("node count too large for buffer");
  if (h.num_contacts > size / 24) fail("contact count too large for buffer");
  if (h.num_neighbors > size / 24) fail("neighbor count too large for buffer");
  if (h.num_neighbors != h.num_contacts * (h.directed ? 1 : 2))
    fail("neighbor count disagrees with contact count");

  const std::uint64_t expected[kNumSections] = {
      h.num_contacts * 24, (h.num_nodes + 1) * 4, h.num_neighbors * 24};
  static const char* const kNames[kNumSections] = {
      "contacts", "node_offsets", "neighbors_by_end"};
  std::uint64_t at = kHeaderBytes;
  for (std::size_t i = 0; i < kNumSections; ++i) {
    const std::uint64_t aligned = align_up(static_cast<std::size_t>(at));
    check_section(h.sections[i], aligned, expected[i], h.total_size,
                  kNames[i]);
    for (std::uint64_t g = at; g < aligned; ++g)
      if (data[g] != 0) fail("alignment gap bytes must be zero");
    at = aligned + expected[i];
  }
  if (at != h.total_size) fail("total_size disagrees with section layout");

  const std::span<const Contact> contacts{
      reinterpret_cast<const Contact*>(data + h.sections[0].offset),
      static_cast<std::size_t>(h.num_contacts)};
  const std::span<const std::uint32_t> node_offsets{
      reinterpret_cast<const std::uint32_t*>(data + h.sections[1].offset),
      static_cast<std::size_t>(h.num_nodes + 1)};
  const std::span<const NodeContact> neighbors{
      reinterpret_cast<const NodeContact*>(data + h.sections[2].offset),
      static_cast<std::size_t>(h.num_neighbors)};

  // Graph invariants, one O(n) sweep each. These are what make a decoded
  // view safe to hand to the engines: every index in range, every array
  // monotone where binary searches assume it.
  double max_end = 0.0;
  for (std::size_t i = 0; i < contacts.size(); ++i) {
    const Contact& c = contacts[i];
    if (!is_valid_contact(c)) fail("malformed contact");
    if (c.u >= h.num_nodes || c.v >= h.num_nodes)
      fail("contact node out of range");
    if (i > 0 && contact_less(c, contacts[i - 1]))
      fail("contacts not in canonical order");
    max_end = i == 0 ? c.end : std::max(max_end, c.end);
  }
  if (contacts.empty()) {
    if (h.start != 0.0 || h.end != 0.0)
      fail("nonzero time span on an empty trace");
  } else if (h.start != contacts.front().begin || h.end != max_end) {
    fail("header time span disagrees with contacts");
  }

  if (node_offsets.front() != 0 || node_offsets.back() != h.num_neighbors)
    fail("node_offsets endpoints inconsistent");
  for (std::size_t i = 1; i < node_offsets.size(); ++i)
    if (node_offsets[i] < node_offsets[i - 1])
      fail("node_offsets not monotone");
  for (std::size_t n = 0; n + 1 < node_offsets.size(); ++n) {
    for (std::uint32_t i = node_offsets[n]; i < node_offsets[n + 1]; ++i) {
      const NodeContact& nc = neighbors[i];
      if (nc.to >= h.num_nodes) fail("neighbor peer out of range");
      if (!(nc.begin <= nc.end)) fail("malformed neighbor window");
      if (i > node_offsets[n]) {
        const NodeContact& p = neighbors[i - 1];
        if (nc.end < p.end ||
            (nc.end == p.end &&
             (nc.begin < p.begin || (nc.begin == p.begin && nc.to < p.to))))
          fail("neighbor run not sorted by (end, begin, to)");
      }
      // Reserved pad bytes must be zero: with this enforced, any buffer
      // that decodes also re-encodes to the identical bytes.
      if (read_pod<std::uint32_t>(data + h.sections[2].offset + i * 24 + 20) !=
          0)
        fail("neighbor record pad bytes must be zero");
    }
  }

  return TemporalGraph::adopt_view(
      static_cast<std::size_t>(h.num_nodes), h.directed, contacts, h.start,
      h.end, node_offsets, neighbors, std::move(backing));
}

TemporalGraph decode_snapshot(
    std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
  const std::uint8_t* data = bytes->data();
  const std::size_t size = bytes->size();
  return decode_snapshot(data, size, std::move(bytes));
}

void write_snapshot_file(const std::string& path,
                         const TemporalGraph& graph) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(graph);
  // Write a sibling temp file and rename it over `path`: the old inode
  // stays intact for every process that has it mapped (truncating it in
  // place would change or SIGBUS their views), and a failed write never
  // leaves a partial file at `path`. "x" makes the create exclusive like
  // mkstemp while keeping the umask-derived mode a plain create gives.
  static std::atomic<unsigned> sequence{0};
  std::string tmp;
  std::FILE* f = nullptr;
  for (int attempt = 0; f == nullptr && attempt < 100; ++attempt) {
    tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(sequence.fetch_add(1));
    f = std::fopen(tmp.c_str(), "wbx");
    if (f == nullptr && errno != EEXIST) break;
  }
  if (f == nullptr)
    fail("cannot create '" + tmp + "': " + std::strerror(errno));
  const auto abandon = [&](const char* what) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail(std::string(what) + " '" + path + "': " + std::strerror(err));
  };
  const bool complete =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !complete) abandon("short write to");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) abandon("cannot replace");
}

namespace {

/// Owns one read-only mmap; the shared_ptr<Mapping> given to adopt_view
/// unmaps when the last graph copy drops it.
struct Mapping {
  void* addr = MAP_FAILED;
  std::size_t len = 0;
  ~Mapping() {
    if (addr != MAP_FAILED && len > 0) ::munmap(addr, len);
  }
};

}  // namespace

TemporalGraph load_snapshot_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    fail("cannot open '" + path + "': " + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    fail("'" + path + "' is not a regular file");
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->len = static_cast<std::size_t>(st.st_size);
  if (mapping->len == 0) {
    ::close(fd);
    fail("'" + path + "' is empty");
  }
  mapping->addr =
      ::mmap(nullptr, mapping->len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping outlives the descriptor
  if (mapping->addr == MAP_FAILED)
    fail("cannot mmap '" + path + "': " + std::strerror(errno));
  const auto* data = static_cast<const std::uint8_t*>(mapping->addr);
  const std::size_t size = mapping->len;
  return decode_snapshot(data, size, std::move(mapping));
}

}  // namespace odtn
