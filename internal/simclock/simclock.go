// Package simclock implements the deterministic discrete-event scheduler that
// drives the worksite simulation.
//
// All worksite dynamics — machine control ticks, radio frame deliveries,
// attack campaign phases, IDS evaluation — are events on a single virtual
// timeline. Events at equal times fire in scheduling order (FIFO), which makes
// every run with the same seed bit-for-bit repeatable, a prerequisite for the
// secured-vs-unsecured comparisons in the benchmark harness.
package simclock

import (
	"container/heap"
	"errors"
	"time"
)

// ErrStopped is returned by Run when the scheduler was stopped explicitly.
var ErrStopped = errors.New("scheduler stopped")

// Event is a scheduled callback. The callback receives the scheduler so it can
// schedule follow-up events.
type Event func(s *Scheduler)

// Task is the allocation-free alternative to Event: a pooled object whose
// RunEvent method fires at the scheduled time. High-rate schedulers (the radio
// medium's frame deliveries) implement it on recycled structs so scheduling
// does not allocate a closure per event.
type Task interface {
	RunEvent(s *Scheduler)
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle uint64

// Scheduler is a deterministic discrete-event scheduler over virtual time.
// The zero value is not usable; construct with New.
type Scheduler struct {
	now     time.Duration
	seq     uint64
	queue   eventQueue
	stopped bool
	// canceled marks handles whose events must not fire.
	canceled map[Handle]struct{}
	// free recycles queue nodes: the control loop schedules one event per
	// tick and the radio one per delivery, so node reuse keeps the steady
	// state allocation-free.
	free []*queuedEvent
}

// New returns an empty scheduler at virtual time zero.
func New() *Scheduler {
	return &Scheduler{canceled: make(map[Handle]struct{})}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn to run at absolute virtual time t. Times in the past are
// clamped to now. It returns a Handle usable with Cancel.
func (s *Scheduler) At(t time.Duration, fn Event) Handle {
	return s.schedule(t, fn, nil)
}

// AtTask schedules task.RunEvent at absolute virtual time t. Unlike At it
// performs no allocation beyond the (pooled) queue node, so callers can reuse
// task objects for a zero-allocation steady state.
func (s *Scheduler) AtTask(t time.Duration, task Task) Handle {
	return s.schedule(t, nil, task)
}

func (s *Scheduler) schedule(t time.Duration, fn Event, task Task) Handle {
	if t < s.now {
		t = s.now
	}
	s.seq++
	h := Handle(s.seq)
	var qe *queuedEvent
	if n := len(s.free); n > 0 {
		qe = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		qe = new(queuedEvent)
	}
	*qe = queuedEvent{at: t, seq: s.seq, fn: fn, task: task, handle: h}
	heap.Push(&s.queue, qe)
	return h
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn Event) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AfterTask schedules task.RunEvent d after the current virtual time.
func (s *Scheduler) AfterTask(d time.Duration, task Task) Handle {
	if d < 0 {
		d = 0
	}
	return s.AtTask(s.now+d, task)
}

// release returns a fired (or skipped) node to the free list. The node's
// references are dropped so recycled nodes do not pin callbacks alive.
func (s *Scheduler) release(qe *queuedEvent) {
	*qe = queuedEvent{}
	s.free = append(s.free, qe)
}

// Every schedules fn to run repeatedly with the given period, starting one
// period from now, until the returned cancel function is called. Period must
// be positive or no events are scheduled.
func (s *Scheduler) Every(period time.Duration, fn Event) (cancel func()) {
	if period <= 0 {
		return func() {}
	}
	stopped := false
	var tick Event
	tick = func(sch *Scheduler) {
		if stopped {
			return
		}
		fn(sch)
		if !stopped {
			sch.After(period, tick)
		}
	}
	s.After(period, tick)
	return func() { stopped = true }
}

// Cancel prevents the event identified by h from firing. Cancelling an
// already-fired or unknown handle is a no-op.
func (s *Scheduler) Cancel(h Handle) {
	s.canceled[h] = struct{}{}
}

// Stop makes Run return ErrStopped after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending returns the number of queued (possibly cancelled) events.
func (s *Scheduler) Pending() int { return s.queue.Len() }

// Run executes events in order until the queue empties, virtual time would
// exceed until, or Stop is called. Events scheduled exactly at until still
// run. It returns ErrStopped if stopped, nil otherwise.
func (s *Scheduler) Run(until time.Duration) error {
	for s.queue.Len() > 0 {
		if s.stopped {
			return ErrStopped
		}
		next := s.queue[0]
		if next.at > until {
			// Leave future events queued; advance the clock to the horizon.
			s.now = until
			return nil
		}
		heap.Pop(&s.queue)
		s.fire(next)
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// Step executes exactly one pending event (skipping cancelled ones) and
// reports whether an event ran.
func (s *Scheduler) Step() bool {
	for s.queue.Len() > 0 {
		next, ok := heap.Pop(&s.queue).(*queuedEvent)
		if !ok {
			return false
		}
		if s.fire(next) {
			return true
		}
	}
	return false
}

// fire releases a popped node and runs its callback, advancing the clock to
// the node's time. It reports whether the callback actually ran (false for
// a cancelled handle). The node is recycled before the callback executes so
// re-entrant scheduling can reuse it.
func (s *Scheduler) fire(next *queuedEvent) bool {
	if _, dead := s.canceled[next.handle]; dead {
		delete(s.canceled, next.handle)
		s.release(next)
		return false
	}
	s.now = next.at
	fn, task := next.fn, next.task
	s.release(next)
	if task != nil {
		task.RunEvent(s)
	} else {
		fn(s)
	}
	return true
}

type queuedEvent struct {
	at     time.Duration
	seq    uint64
	fn     Event
	task   Task
	handle Handle
}

type eventQueue []*queuedEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*queuedEvent)) }

func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}
