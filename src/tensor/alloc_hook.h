/**
 * @file
 * Thread-local tensor-allocation hook: lets a compiled execution tape
 * place op outputs at pre-planned arena addresses.
 *
 * Ops allocate their own output tensors inside forward() (see
 * graph/op.h), so a steady-state runtime that wants planner-addressed
 * buffers cannot pass placements in by argument.  Instead, the tape
 * arms this hook around each op dispatch with the planned output slots;
 * Tensor's allocating constructors serve a matching-size allocation
 * from the first unclaimed slot (via the shared_ptr aliasing
 * constructor — no heap traffic), and fall back to the heap when no
 * slot matches (counted as `tape.arena_miss`, never incorrect).
 *
 * The hook is strictly thread-local: arming it on the tape's thread
 * never affects allocations that an op's kernel makes on pool
 * workers; those always go to the heap.
 */
#ifndef ECHO_TENSOR_ALLOC_HOOK_H
#define ECHO_TENSOR_ALLOC_HOOK_H

#include <cstdint>
#include <memory>

namespace echo {

/** One pre-placed allocation the hook may serve.  @p owner is the
 *  keep-alive for the region @p ptr points into (slots of one record
 *  can live in different regions — transient arena vs the
 *  double-buffered persistent region). */
struct AllocSlot
{
    float *ptr = nullptr;
    int64_t bytes = 0;
    const std::shared_ptr<void> *owner = nullptr;
    bool claimed = false;
};

/** The thread's hook state (armed while slots != nullptr). */
struct AllocHook
{
    AllocSlot *slots = nullptr;
    int count = 0;

    bool armed() const { return slots != nullptr; }
};

/** This thread's hook (mutable; normally managed via AllocHookScope). */
AllocHook &threadAllocHook();

/** RAII arm/disarm around one op dispatch. */
class AllocHookScope
{
  public:
    AllocHookScope(AllocSlot *slots, int count)
    {
        AllocHook &h = threadAllocHook();
        h.slots = slots;
        h.count = count;
    }
    ~AllocHookScope()
    {
        AllocHook &h = threadAllocHook();
        h.slots = nullptr;
        h.count = 0;
    }
    AllocHookScope(const AllocHookScope &) = delete;
    AllocHookScope &operator=(const AllocHookScope &) = delete;
};

} // namespace echo

#endif // ECHO_TENSOR_ALLOC_HOOK_H
