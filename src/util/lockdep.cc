#include "util/lockdep.h"

#if GKNN_LOCKDEP

#include <sstream>

#include "util/logging.h"

namespace gknn::util::lockdep {
namespace {

/// Upper bound on distinct LockClasses (production table + test-local
/// classes). Classes past the bound still get rank/leaf checking; only
/// the order graph skips them.
constexpr int kMaxClasses = 64;

/// Upper bound on locks one thread holds at once. The production maximum
/// is the cleaner's full stripe set plus the enclosing query locks.
constexpr int kMaxHeld = 128;

struct Registry {
  std::mutex mu;  // gknn-lint: allow(raw-mutex): lockdep internals are untracked
  const LockClass* classes[kMaxClasses] = {};
  int num_classes = 0;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives static destructors
  return *r;
}

/// Acquisition-order graph over class ids. edge[f][t] is set once the
/// program has been observed holding f while acquiring t; insertion of a
/// new edge runs a DFS under graph_mu to detect a t ->* f path — a cycle
/// means some pair of threads orders the classes both ways, a potential
/// deadlock even if this run never interleaves into one.
struct OrderGraph {
  std::mutex mu;  // gknn-lint: allow(raw-mutex): lockdep internals are untracked
  std::atomic<bool> edge[kMaxClasses][kMaxClasses] = {};
};

OrderGraph& graph() {
  static OrderGraph* g = new OrderGraph;
  return *g;
}

struct Held {
  const LockClass* cls;
  uint32_t key;
  const void* addr;
};

thread_local Held t_held[kMaxHeld];
thread_local int t_num_held = 0;

/// Acquisitions made by this thread, in total and per class id.
thread_local uint64_t t_acquisitions = 0;
thread_local uint64_t t_class_acquisitions[kMaxClasses] = {};

std::atomic<uint64_t> g_violations{0};
std::atomic<ViolationHandler> g_handler{nullptr};

struct LastViolation {
  std::mutex mu;  // gknn-lint: allow(raw-mutex): lockdep internals are untracked
  std::string message;
};

LastViolation& last_violation() {
  static LastViolation* v = new LastViolation;
  return *v;
}

void Report(Violation::Kind kind, std::string message) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  {
    LastViolation& last = last_violation();
    std::lock_guard<std::mutex> lock(last.mu);  // gknn-lint: allow(raw-mutex): lockdep internals
    last.message = message;
  }
  ViolationHandler handler = g_handler.load(std::memory_order_acquire);
  if (handler != nullptr) {
    handler(Violation{kind, std::move(message)});
  } else {
    GKNN_LOG(Error) << "lockdep: " << message;
  }
}

/// DFS over the order graph: is `to` reachable from `from`?
bool Reaches(const OrderGraph& g, int from, int to) {
  bool visited[kMaxClasses] = {};
  int stack[kMaxClasses];
  int depth = 0;
  stack[depth++] = from;
  visited[from] = true;
  while (depth > 0) {
    const int node = stack[--depth];
    if (node == to) return true;
    for (int next = 0; next < kMaxClasses; ++next) {
      if (!visited[next] &&
          g.edge[node][next].load(std::memory_order_relaxed)) {
        visited[next] = true;
        stack[depth++] = next;
      }
    }
  }
  return false;
}

/// Records the edge held -> acquired; on first insertion checks whether
/// the reverse direction was already reachable, which closes a cycle.
void AddEdge(const LockClass& held, const LockClass& acquired) {
  const int from = held.id();
  const int to = acquired.id();
  if (from < 0 || to < 0 || from == to) return;
  OrderGraph& g = graph();
  if (g.edge[from][to].load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(g.mu);  // gknn-lint: allow(raw-mutex): lockdep internals
  if (g.edge[from][to].exchange(true, std::memory_order_relaxed)) return;
  if (Reaches(g, to, from)) {
    std::ostringstream oss;
    oss << "acquisition-order cycle: holding " << held.name()
        << " while acquiring " << acquired.name() << ", but "
        << acquired.name() << " is already ordered before " << held.name()
        << " on some other path (potential ABBA deadlock)";
    Report(Violation::Kind::kCycle, oss.str());
  }
}

}  // namespace

int LockClass::id() const {
  int id = id_.load(std::memory_order_acquire);
  if (id >= 0) return id;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);  // gknn-lint: allow(raw-mutex): lockdep internals
  id = id_.load(std::memory_order_relaxed);
  if (id >= 0) return id;
  if (r.num_classes >= kMaxClasses) {
    id_.store(-2, std::memory_order_release);  // no graph slot; checks still run
    return -2;
  }
  id = r.num_classes++;
  r.classes[id] = this;
  id_.store(id, std::memory_order_release);
  return id;
}

uint64_t ViolationCount() {
  return g_violations.load(std::memory_order_relaxed);
}

Status LastViolationStatus() {
  LastViolation& last = last_violation();
  std::lock_guard<std::mutex> lock(last.mu);  // gknn-lint: allow(raw-mutex): lockdep internals
  if (last.message.empty()) return Status::OK();
  return Status::Internal("lockdep violation: " + last.message);
}

ViolationHandler SetViolationHandler(ViolationHandler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

void ResetViolationsForTesting() {
  g_violations.store(0, std::memory_order_relaxed);
  LastViolation& last = last_violation();
  std::lock_guard<std::mutex> lock(last.mu);  // gknn-lint: allow(raw-mutex): lockdep internals
  last.message.clear();
}

uint64_t ThreadAcquisitions() { return t_acquisitions; }

uint64_t ThreadAcquisitions(const LockClass& cls) {
  const int id = cls.id();
  return id >= 0 ? t_class_acquisitions[id] : 0;
}

namespace internal {

void OnAcquire(const LockClass& cls, uint32_t key, const void* addr) {
  ++t_acquisitions;
  if (const int id = cls.id(); id >= 0) ++t_class_acquisitions[id];
  if (t_num_held > 0) {
    // One pass over the held stack: the deepest rank, whether a leaf is
    // held, and the deepest same-class instance key.
    int max_rank = INT32_MIN;
    const LockClass* deepest = nullptr;
    const LockClass* held_leaf = nullptr;
    bool same_class = false;
    uint32_t max_same_key = 0;
    for (int i = 0; i < t_num_held; ++i) {
      const Held& h = t_held[i];
      if (h.cls->rank() >= max_rank) {
        max_rank = h.cls->rank();
        deepest = h.cls;
      }
      if (h.cls->leaf()) held_leaf = h.cls;
      if (h.cls == &cls) {
        same_class = true;
        if (h.key >= max_same_key) max_same_key = h.key;
      }
    }
    // The report text is built only on a violation branch: the checks
    // above run on every nested acquisition and must stay cheap.
    if (held_leaf != nullptr) {
      std::ostringstream oss;
      oss << "acquired " << cls.name() << " (rank " << cls.rank()
          << ") while holding leaf class " << held_leaf->name()
          << " — leaves must never be held across another acquisition";
      Report(Violation::Kind::kLeafHeld, oss.str());
    } else if (same_class) {
      if (!cls.nestable()) {
        std::ostringstream oss;
        oss << "re-entered non-nestable class " << cls.name()
            << " (already held by this thread)";
        Report(Violation::Kind::kSameClass, oss.str());
      } else if (key <= max_same_key) {
        std::ostringstream oss;
        oss << "nestable class " << cls.name() << ": acquired key " << key
            << " while already holding key " << max_same_key
            << " — instance keys must be strictly ascending"
            << " (ascending-stripe rule)";
        Report(Violation::Kind::kSameClass, oss.str());
      }
    } else if (cls.rank() < max_rank) {
      std::ostringstream oss;
      oss << "rank inversion: acquired " << cls.name() << " (rank "
          << cls.rank() << ") while holding " << deepest->name() << " (rank "
          << max_rank << ")";
      Report(Violation::Kind::kRankInversion, oss.str());
    }
    // Feed the order graph from every held class, violation or not: the
    // cycle detector should still learn from runs that also break ranks.
    for (int i = 0; i < t_num_held; ++i) {
      if (t_held[i].cls != &cls) AddEdge(*t_held[i].cls, cls);
    }
  }
  if (t_num_held < kMaxHeld) {
    t_held[t_num_held++] = Held{&cls, key, addr};
  }
}

void OnRelease(const void* addr) {
  // Scan from the top: releases are almost always LIFO; a mid-stack hit
  // is a condition-variable wait or an explicit early unlock.
  for (int i = t_num_held - 1; i >= 0; --i) {
    if (t_held[i].addr != addr) continue;
    for (int j = i; j + 1 < t_num_held; ++j) t_held[j] = t_held[j + 1];
    --t_num_held;
    return;
  }
  // Unknown address: the stack overflowed at acquisition time; ignore.
}

}  // namespace internal

}  // namespace gknn::util::lockdep

#endif  // GKNN_LOCKDEP
