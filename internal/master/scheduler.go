package master

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"carousel/internal/obs"
)

// sloTask tracks task completion against a latency/availability
// objective: tasks should finish (without failing) inside the target, 99%
// of the time. Failures burn budget alongside slow passes. It is the
// scheduler's one instrument — its slo_latency_ns window times completed
// tasks; queue depth, running count and per-task outcome are the status
// page's (Counts, Snapshot).
var sloTask = obs.NewSLO(obs.Default(), "master_task", 5*time.Minute, 0.99)

// errTaskFailed marks a terminal task failure for the task SLO.
var errTaskFailed = errors.New("master: task failed")

// TaskClass partitions the queue: each class has its own concurrency cap,
// and lower-numbered classes run first when both are waiting.
type TaskClass string

const (
	// ClassRecover rebuilds a departed server's blocks onto newcomers.
	ClassRecover TaskClass = "recover"
	// ClassScrub sweeps files with server-side checksum probes and repairs
	// what they find. Scrubs always yield to recoveries.
	ClassScrub TaskClass = "scrub"
)

// classPriority orders classes at dispatch: recover > scrub.
func classPriority(c TaskClass) int {
	if c == ClassRecover {
		return 0
	}
	return 1
}

// Task states.
const (
	TaskPending = "pending"
	TaskRunning = "running"
	TaskDone    = "done"
	TaskFailed  = "failed"
)

// TaskItem is one resumable unit of a task: a single file's recovery
// (regenerate block Failed of every stripe onto Addrs[Failed]) or scrub
// (Failed < 0). Addrs snapshot the placement at scheduling time, newcomer
// already substituted, so a resumed item is self-contained.
type TaskItem struct {
	File      string   `json:"file"`
	Size      int      `json:"size"`
	BlockSize int      `json:"block_size"`
	Addrs     []string `json:"addrs"`
	Failed    int      `json:"failed"`
}

// Task is one supervised background pass. The checkpoint advances (and is
// journaled) after every completed item, so a master restart resumes the
// pass at the first unfinished item instead of restarting it.
type Task struct {
	ID      uint64    `json:"id"`
	Class   TaskClass `json:"class"`
	State   string    `json:"state"`
	Created time.Time `json:"created"`
	// Server is the departed member a recover task drains (empty for
	// scrubs).
	Server string     `json:"server,omitempty"`
	Items  []TaskItem `json:"items"`
	// Checkpoint counts completed items; resume starts here.
	Checkpoint int `json:"checkpoint"`
	// Bandwidth caps the pass's network traffic in bytes/sec through the
	// store's token bucket (0 = unthrottled).
	Bandwidth int64 `json:"bandwidth,omitempty"`
	// BlocksRepaired accumulates across runs; with per-item checkpointing
	// a resumed task never re-repairs, so the final total equals the
	// blocks the failure actually cost.
	BlocksRepaired int64  `json:"blocks_repaired"`
	Err            string `json:"err,omitempty"`
}

// clone deep-copies a task for status pages and journal records.
func (t *Task) clone() *Task {
	c := *t
	c.Items = make([]TaskItem, len(t.Items))
	for i, it := range t.Items {
		it.Addrs = append([]string(nil), it.Addrs...)
		c.Items[i] = it
	}
	return &c
}

// taskExec runs one item of a task and returns how many blocks it
// repaired. The master supplies the real implementation (a Store over the
// item's addrs); scheduler tests inject fakes.
type taskExec func(ctx context.Context, t *Task, item TaskItem) (int64, error)

// taskPersist is called after every task mutation worth surviving a
// restart (creation is journaled by the submitter; the scheduler reports
// state edges and checkpoints). The record argument is a snapshot safe to
// use outside the scheduler lock.
type taskPersist struct {
	onState func(id uint64, state, errMsg string)
	onCkpt  func(id uint64, done int, blocks int64)
}

// scheduler runs tasks through one queue with per-class concurrency caps
// and priorities. One dispatcher goroutine pops runnable tasks; each
// running task gets a worker goroutine that walks its items from the
// checkpoint, persisting progress after every item.
type scheduler struct {
	mu      sync.Mutex
	pending []*Task
	tasks   map[uint64]*Task
	running map[TaskClass]int
	caps    map[TaskClass]int
	exec    taskExec
	persist taskPersist

	wake   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newScheduler(caps map[TaskClass]int, exec taskExec, persist taskPersist) *scheduler {
	ctx, cancel := context.WithCancel(context.Background())
	s := &scheduler{
		tasks:   make(map[uint64]*Task),
		running: make(map[TaskClass]int),
		caps:    caps,
		exec:    exec,
		persist: persist,
		wake:    make(chan struct{}, 1),
		ctx:     ctx,
		cancel:  cancel,
	}
	return s
}

// Start launches the dispatcher.
func (s *scheduler) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			s.dispatch()
			select {
			case <-s.wake:
			case <-s.ctx.Done():
				return
			}
		}
	}()
}

// Close stops dispatching, cancels running workers, and joins them.
// In-flight items stop at the next context check; their tasks keep their
// journaled checkpoints and resume on the next master start.
func (s *scheduler) Close() {
	s.cancel()
	s.wg.Wait()
}

// Submit enqueues a task (restored or fresh). Restored running tasks
// re-enter as pending: their worker died with the old master.
func (s *scheduler) Submit(t *Task) {
	s.mu.Lock()
	if t.State == TaskRunning {
		t.State = TaskPending
	}
	s.tasks[t.ID] = t
	if t.State == TaskPending {
		s.pending = append(s.pending, t)
	}
	s.mu.Unlock()
	s.kick()
}

// kick nudges the dispatcher without blocking.
func (s *scheduler) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// dispatch launches every runnable pending task: classes under their cap,
// higher-priority classes (recover) first, FIFO within a class.
func (s *scheduler) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
		return
	}
	sort.SliceStable(s.pending, func(i, j int) bool {
		pi, pj := classPriority(s.pending[i].Class), classPriority(s.pending[j].Class)
		if pi != pj {
			return pi < pj
		}
		return s.pending[i].ID < s.pending[j].ID
	})
	rest := s.pending[:0]
	for _, t := range s.pending {
		cap := s.caps[t.Class]
		if cap > 0 && s.running[t.Class] >= cap {
			rest = append(rest, t)
			continue
		}
		s.running[t.Class]++
		t.State = TaskRunning
		s.wg.Add(1)
		go s.run(t)
	}
	s.pending = rest
}

func (s *scheduler) runningLocked() int {
	n := 0
	for _, v := range s.running {
		n += v
	}
	return n
}

// run walks one task's items from its checkpoint. After every item the
// checkpoint is persisted, so a crash between items resumes exactly
// there; a cancellation (master shutdown) leaves the task running with
// its checkpoint intact.
func (s *scheduler) run(t *Task) {
	defer s.wg.Done()
	t0 := time.Now()
	s.persist.onState(t.ID, TaskRunning, "")
	var finalState, finalErr string
	for {
		s.mu.Lock()
		i := t.Checkpoint
		var item TaskItem
		if i < len(t.Items) {
			item = t.Items[i]
		}
		s.mu.Unlock()
		if i >= len(t.Items) {
			finalState = TaskDone
			break
		}
		if s.ctx.Err() != nil {
			// Shutdown mid-pass: no terminal state; the journal still says
			// running, and the next master resumes from the checkpoint.
			finalState = ""
			break
		}
		blocks, err := s.exec(s.ctx, t, item)
		if err != nil {
			if s.ctx.Err() != nil {
				finalState = ""
				break
			}
			finalState, finalErr = TaskFailed, err.Error()
			break
		}
		s.mu.Lock()
		t.Checkpoint = i + 1
		t.BlocksRepaired += blocks
		done, total := t.Checkpoint, t.BlocksRepaired
		s.mu.Unlock()
		s.persist.onCkpt(t.ID, done, total)
	}
	s.mu.Lock()
	if finalState != "" {
		t.State = finalState
		t.Err = finalErr
	}
	s.running[t.Class]--
	s.mu.Unlock()
	if finalState != "" {
		s.persist.onState(t.ID, finalState, finalErr)
		var failed error
		if finalState == TaskFailed {
			failed = errTaskFailed
		}
		sloTask.ObserveSince(t0, failed)
	}
	s.kick()
}

// Snapshot copies every task, newest first, for the status page.
func (s *scheduler) Snapshot() []Task {
	s.mu.Lock()
	out := make([]Task, 0, len(s.tasks))
	for _, t := range s.tasks {
		out = append(out, *t.clone())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Counts reports pending and running totals.
func (s *scheduler) Counts() (pending, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending), s.runningLocked()
}

// HasActive reports whether any task of the class is pending or running —
// the guard that keeps periodic scrubs from piling up behind a slow one.
func (s *scheduler) HasActive(class TaskClass) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tasks {
		if t.Class == class && (t.State == TaskPending || t.State == TaskRunning) {
			return true
		}
	}
	return false
}
