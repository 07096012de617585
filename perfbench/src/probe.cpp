#include "probe.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

inline void note_alloc(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  note_alloc(n);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  note_alloc(n);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((n ? n : 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocTotals alloc_totals() {
  return AllocTotals{g_alloc_count.load(std::memory_order_relaxed),
                     g_alloc_bytes.load(std::memory_order_relaxed)};
}

std::size_t Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  Stat s;
  s.name = name;
  stats_.push_back(std::move(s));
  return names_.size() - 1;
}

void Tracer::begin(const char* name, std::uint64_t op_id) {
  Open o;
  o.stat = intern(name);
  o.op = op_id;
  if (raw_.size() < kRawCapacity) {
    Raw r;
    r.stat = o.stat;
    r.parent = open_.empty() ? -1 : open_.back().raw;
    r.op = op_id;
    raw_.push_back(r);
    o.raw = static_cast<std::int64_t>(raw_.size() - 1);
  } else {
    ++raw_dropped_;
  }
  o.start = now_ns();
  open_.push_back(o);
}

void Tracer::end() {
  const std::uint64_t t = now_ns();
  Open o = open_.back();
  open_.pop_back();
  const std::uint64_t dur = t - o.start;
  Stat& s = stats_[o.stat];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
  if (!open_.empty()) open_.back().child_ns += dur;
  if (o.raw >= 0) {
    Raw& r = raw_[static_cast<std::size_t>(o.raw)];
    r.start = o.start;
    r.end = t;
  }
}

double Tracer::mean_ns(const std::string& name) const {
  for (const Stat& s : stats_) {
    if (s.name == name && s.count > 0) {
      return static_cast<double>(s.total_ns) / static_cast<double>(s.count);
    }
  }
  return 0.0;
}

linuxfp::util::Json Tracer::to_json() const {
  using linuxfp::util::Json;
  Json spans = Json::array();
  for (const Raw& r : raw_) {
    Json j = Json::object();
    j["name"] = stats_[r.stat].name;
    j["start_ns"] = r.start;
    j["end_ns"] = r.end;
    j["parent"] = static_cast<std::int64_t>(r.parent);
    j["op"] = r.op;
    spans.push_back(std::move(j));
  }
  Json summary = Json::array();
  for (const Stat& s : stats_) {
    Json j = Json::object();
    j["name"] = s.name;
    j["count"] = s.count;
    j["total_ns"] = s.total_ns;
    j["self_ns"] = s.self_ns;
    summary.push_back(std::move(j));
  }
  Json out = Json::object();
  out["summary"] = std::move(summary);
  out["dropped"] = raw_dropped_;
  out["spans"] = std::move(spans);
  return out;
}

}  // namespace perfbench

// The driver's global allocation hook. Replacing the unaligned and aligned
// forms together keeps every new/delete pair on one allocator.
void* operator new(std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
