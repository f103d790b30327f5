// Scheduling core of the procs backend's coordinator loop
// (coordinator.cpp).
//
// A TaskScheduler owns the per-run failure accounting — the pending queue,
// per-task done/failures state and the retry budget — while the
// coordinator owns everything byte-shaped: spawning workers, writing task
// frames, reading result frames, and noticing that a worker died. The
// contract between them is a set of "slots" (one per worker process):
//
//   - AddSlot() registers a slot; NextTask() hands an idle open slot the
//     next pending task. A task is in flight on at most one slot at a
//     time: it leaves the pending queue when handed out and re-enters it
//     only when that attempt fails;
//   - OnResult/OnTaskError/OnProtocolError report a frame the coordinator
//     read from that slot; OnSlotDeath reports that its stream died. Each
//     returns false when the run must fail — the message and failing task
//     are then available from error()/failed_task().
//
// Whether a slot is open is the coordinator's business: it only hands
// tasks to open slots and reports each loss once, so a closed slot simply
// holds no task.
//
// Frame accounting validates the worker-reported index against the slot's
// assigned task: a duplicated, reordered, or forged frame is a protocol
// failure for the whole run, never credited to (or charged against) some
// innocent task.
//
// The scheduler is single-threaded by design — the coordinator drives it
// from one poll loop — and never blocks or touches fds.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

namespace disco::exec {

class TaskScheduler {
 public:
  static constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

  /// Re-runs allowed per task after its first failed attempt (a worker
  /// death or an error frame); the next failure fails the run.
  static constexpr int kMaxRetries = 2;

  /// `results` outlives the scheduler and receives (*results)[i] = task
  /// i's payload; it is assigned count empty strings up front.
  TaskScheduler(std::size_t count, std::vector<std::string>* results);

  /// Registers an idle worker slot; returns its id (0, 1, 2, ...).
  std::size_t AddSlot();

  /// The slot's in-flight task, kNoTask when idle.
  std::size_t task_of(std::size_t slot) const { return slots_[slot]; }

  /// Pops the next pending task for an idle open slot and marks it in
  /// flight there; kNoTask when nothing is pending.
  std::size_t NextTask(std::size_t slot);

  /// Result frame from `slot` for task `index`. False = fail the run.
  bool OnResult(std::size_t slot, std::size_t index, std::string payload);

  /// Task-error frame ("E"): charges one failed attempt to the task.
  bool OnTaskError(std::size_t slot, std::size_t index,
                   const std::string& why);

  /// Protocol-error frame ("B"): the worker rejected the request stream
  /// itself. Never attributable to a task — always fails the run.
  bool OnProtocolError(std::size_t slot, const std::string& message);

  /// The slot's stream died (worker crash or SIGKILL). Charges the
  /// in-flight task (if any) one failed attempt; the slot is left idle.
  bool OnSlotDeath(std::size_t slot, const std::string& why);

  bool done() const { return done_count_ == count_; }

  /// Tasks waiting for a slot.
  std::size_t pending() const { return pending_.size(); }

  /// Lowest task id not yet finished (the task count when all are) — the
  /// coordinator names it when every slot is lost before the run
  /// completes.
  std::size_t FirstUnfinished() const;

  /// Failure details, valid after any handler returned false.
  const std::string& error() const { return error_; }
  std::size_t failed_task() const { return failed_task_; }
  bool task_known() const { return task_known_; }

 private:
  struct TaskState {
    bool done = false;
    int failures = 0;  // failed attempts so far (deaths and E frames)
  };

  // Requeues (or finally fails) a task whose attempt just died. False
  // when retries are exhausted; error_/failed_task_ then name it.
  bool AttemptFailed(std::size_t task, const std::string& why);

  // True when `index` is the task `slot` holds; otherwise fails the run
  // naming the mismatched `frame`.
  bool Holds(std::size_t slot, std::size_t index, const char* frame);

  bool Fail(std::size_t task, bool task_known, std::string message);

  const std::size_t count_;
  std::vector<std::string>* const results_;

  std::vector<TaskState> tasks_;
  std::vector<std::size_t> slots_;  // each slot's task, kNoTask when idle
  std::deque<std::size_t> pending_;
  std::size_t done_count_ = 0;

  std::string error_;
  std::size_t failed_task_ = 0;
  bool task_known_ = false;
};

}  // namespace disco::exec
