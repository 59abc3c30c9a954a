#include "group/grouping.h"

#include "util/arena.h"

namespace structride {

namespace {

bool AdjacentToAll(const ShareGraph* graph, RequestId candidate,
                       const RequestId* members, uint32_t len) {
  for (uint32_t k = 0; k < len; ++k) {
    if (!graph->HasEdge(candidate, members[k])) return false;
  }
  return true;
}

// FNV-1a over the (sorted) member-id key.
uint64_t HashKey(const RequestId* key, uint32_t len) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t k = 0; k < len; ++k) {
    h ^= static_cast<uint64_t>(key[k]);
    h *= 1099511628211ull;
  }
  return h;
}

// One candidate child produced during a best-of-all-parents level, chained
// in production order on the call's arena.
struct ChildRec {
  const RequestId* key = nullptr;   ///< sorted member ids (len entries)
  const size_t* midx = nullptr;     ///< sorted pool indices (len entries)
  uint32_t len = 0;
  uint32_t parent = 0;              ///< index into the current level
  const Request* request = nullptr; ///< the member this child adds
  double delta = 0;
  InsertionCandidate cand;
  ChildRec* next = nullptr;
};

bool SameKey(const ChildRec* a, const ChildRec* b) {
  if (a->len != b->len) return false;
  for (uint32_t k = 0; k < a->len; ++k) {
    if (a->key[k] != b->key[k]) return false;
  }
  return true;
}

}  // namespace

PooledGroupingResult EnumerateGroupsPooled(const RouteState& state,
                                           Span<const Stop> committed,
                                           Span<const double> committed_legs,
                                           Span<const Request* const> pool,
                                           const ShareGraph* graph,
                                           TravelCostEngine* engine,
                                           const GroupingOptions& options,
                                           GroupingScratch* scratch) {
  PooledGroupingResult result;
  result.first_group = scratch->groups.size();
  if (options.max_group_size <= 0) return result;

  ArenaScope scope(ScratchArena());
  const size_t n = pool.size();
  const Request** ordered = scope.AllocateArray<const Request*>(n);
  for (size_t i = 0; i < n; ++i) ordered[i] = pool[i];
  if (options.insertion_order == InsertionOrderPolicy::kByShareability &&
      graph != nullptr) {
    // (degree, id) is a strict total order — ids are unique — so the
    // allocation-free std::sort is deterministic.
    std::sort(ordered, ordered + n,
              [graph](const Request* a, const Request* b) {
                size_t da = graph->Degree(a->id);
                size_t db = graph->Degree(b->id);
                if (da != db) return da < db;
                return a->id < b->id;
              });
  }

  auto count = [&] { return scratch->groups.size() - result.first_group; };
  auto capped = [&] { return count() >= options.max_groups; };

  // Splices request r (per cand) into parent and appends the group; the
  // caller supplies the full member-id list.
  auto emit_group = [&](Span<const Stop> parent, const Request& r,
                        const InsertionCandidate& cand,
                        const RequestId* members, uint32_t mlen,
                        double delta) {
    PooledGroup g;
    g.members_first = static_cast<uint32_t>(scratch->member_ids.size());
    g.members_len = mlen;
    scratch->member_ids.insert(scratch->member_ids.end(), members,
                               members + mlen);
    Stop* out = scratch->schedules.AppendUninit(parent.size() + 2, &g.schedule);
    ApplyInsertionInto(parent, r, cand, out);
    g.delta_cost = delta;
    scratch->groups.push_back(g);
    return g.schedule;
  };

  auto& level = scratch->level_;
  auto& next = scratch->next_;
  level.clear();
  next.clear();

  for (size_t idx = 0; idx < n; ++idx) {
    if (capped()) {
      result.truncated = true;
      result.count = count();
      return result;
    }
    InsertionCandidate cand =
        BestInsertion(state, committed, committed_legs, *ordered[idx], engine);
    if (!cand.feasible) continue;
    RequestId* mem = scope.AllocateArray<RequestId>(1);
    mem[0] = ordered[idx]->id;
    size_t* midx = scope.AllocateArray<size_t>(1);
    midx[0] = idx;
    SchedulePool::Handle h =
        emit_group(committed, *ordered[idx], cand, mem, 1, cand.delta_cost);
    level.push_back({mem, midx, 1, h, cand.delta_cost});
  }

  int size = 1;
  while (!level.empty() && size < options.max_group_size && graph != nullptr) {
    next.clear();
    if (options.insertion_order == InsertionOrderPolicy::kByShareability) {
      // Additive tree: each set is generated once, along the index-
      // increasing path, i.e. members join in ascending shareability order.
      // Children are emitted at production time.
      for (const auto& node : level) {
        for (size_t idx = node.member_idx[node.len - 1] + 1; idx < n; ++idx) {
          const Request& r = *ordered[idx];
          if (!AdjacentToAll(graph, r.id, node.members, node.len)) continue;
          Span<const Stop> parent = scratch->schedules.View(node.schedule);
          InsertionCandidate cand =
              BestInsertion(state, parent, {}, r, engine);
          if (!cand.feasible) continue;
          RequestId* mem = scope.AllocateArray<RequestId>(node.len + 1);
          std::copy(node.members, node.members + node.len, mem);
          mem[node.len] = r.id;
          size_t* midx = scope.AllocateArray<size_t>(node.len + 1);
          std::copy(node.member_idx, node.member_idx + node.len, midx);
          midx[node.len] = idx;
          double delta = node.delta + cand.delta_cost;
          SchedulePool::Handle h =
              emit_group(parent, r, cand, mem, node.len + 1, delta);
          next.push_back({mem, midx, node.len + 1, h, delta});
          if (capped()) {
            result.truncated = true;
            break;
          }
        }
        if (result.truncated) break;
      }
    } else {
      // Best-of-all-parents: a set of size k+1 is reachable from each of its
      // k+1 parents; keep the cheapest schedule found. Children are
      // recorded in production order; the winners — cheapest per member
      // set, earliest producer on delta ties — are selected and
      // materialized afterwards in ascending key order. The member-key set
      // (open addressing over the arena) tracks the distinct-set count the
      // truncation cap is defined on.
      ChildRec* head = nullptr;
      ChildRec** tail = &head;
      size_t num_children = 0;
      size_t table_cap = 64;
      while (table_cap < 2 * level.size() + 16) table_cap <<= 1;
      ChildRec** table = scope.AllocateArray<ChildRec*>(table_cap);
      std::fill(table, table + table_cap, nullptr);
      size_t distinct = 0;

      auto find_slot = [&](ChildRec* rec) {
        size_t slot = HashKey(rec->key, rec->len) & (table_cap - 1);
        while (table[slot] != nullptr && !SameKey(table[slot], rec)) {
          slot = (slot + 1) & (table_cap - 1);
        }
        return slot;
      };
      auto grow_table = [&] {
        size_t old_cap = table_cap;
        ChildRec** old = table;
        table_cap <<= 1;
        table = scope.AllocateArray<ChildRec*>(table_cap);
        std::fill(table, table + table_cap, nullptr);
        for (size_t s = 0; s < old_cap; ++s) {
          if (old[s] != nullptr) table[find_slot(old[s])] = old[s];
        }
      };

      for (uint32_t ni = 0; ni < level.size() && !result.truncated; ++ni) {
        const auto& node = level[ni];
        for (size_t idx = 0; idx < n; ++idx) {
          const Request& r = *ordered[idx];
          bool contains = false;
          for (uint32_t k = 0; k < node.len; ++k) {
            if (node.member_idx[k] == idx) {
              contains = true;
              break;
            }
          }
          if (contains) continue;
          if (!AdjacentToAll(graph, r.id, node.members, node.len)) continue;
          RequestId* key = scope.AllocateArray<RequestId>(node.len + 1);
          std::copy(node.members, node.members + node.len, key);
          key[node.len] = r.id;
          std::sort(key, key + node.len + 1);
          InsertionCandidate cand = BestInsertion(
              state, scratch->schedules.View(node.schedule), {}, r, engine);
          if (!cand.feasible) continue;
          size_t* midx = scope.AllocateArray<size_t>(node.len + 1);
          std::copy(node.member_idx, node.member_idx + node.len, midx);
          midx[node.len] = idx;
          std::sort(midx, midx + node.len + 1);
          ChildRec* rec = scope.AllocateArray<ChildRec>(1);
          *rec = {key,  midx, node.len + 1,     ni,
                  &r,   node.delta + cand.delta_cost, cand, nullptr};
          *tail = rec;
          tail = &rec->next;
          ++num_children;
          size_t slot = find_slot(rec);
          if (table[slot] == nullptr) {
            table[slot] = rec;
            ++distinct;
            if (2 * distinct >= table_cap) grow_table();
            if (count() + distinct >= options.max_groups) {
              result.truncated = true;
              break;
            }
          }
        }
      }

      // Selection: sort all recorded children by (key, delta, production
      // index) and keep the first of each key run.
      ChildRec** all = scope.AllocateArray<ChildRec*>(num_children);
      {
        size_t w = 0;
        for (ChildRec* rec = head; rec != nullptr; rec = rec->next) {
          all[w++] = rec;
        }
      }
      uint32_t* order = scope.AllocateArray<uint32_t>(num_children);
      for (uint32_t i = 0; i < num_children; ++i) order[i] = i;
      std::sort(order, order + num_children, [&](uint32_t a, uint32_t b) {
        const ChildRec* ca = all[a];
        const ChildRec* cb = all[b];
        for (uint32_t k = 0; k < ca->len; ++k) {
          if (ca->key[k] != cb->key[k]) return ca->key[k] < cb->key[k];
        }
        if (ca->delta != cb->delta) return ca->delta < cb->delta;
        return a < b;
      });
      const ChildRec* prev = nullptr;
      for (size_t i = 0; i < num_children; ++i) {
        ChildRec* rec = all[order[i]];
        if (prev != nullptr && SameKey(prev, rec)) continue;
        prev = rec;
        Span<const Stop> parent =
            scratch->schedules.View(level[rec->parent].schedule);
        SchedulePool::Handle h = emit_group(parent, *rec->request, rec->cand,
                                            rec->key, rec->len, rec->delta);
        next.push_back({rec->key, rec->midx, rec->len, h, rec->delta});
      }
    }
    std::swap(level, next);
    ++size;
    if (result.truncated) break;
  }
  result.count = count();
  return result;
}

size_t PooledGroupingMemoryBytes(const GroupingScratch& scratch,
                                 const PooledGroupingResult& result) {
  size_t bytes = result.count * kGroupRecordBytes;
  for (size_t i = 0; i < result.count; ++i) {
    const PooledGroup& g = scratch.groups[result.first_group + i];
    bytes += g.members_len * sizeof(RequestId);
    bytes += scratch.ScheduleOf(g).size() * sizeof(Stop);
  }
  return bytes;
}

}  // namespace structride
