package engine

import (
	"fmt"
	"sync"
)

// BudgetPool is a byte-budget ledger with job-tagged reservations: the M3R
// engine keeps one per place for the lifetime of the engine, so every job of
// a server-mode sequence — including jobs running concurrently — contends
// for the same per-place shuffle memory instead of each reserving a full
// private allotment (the paper's long-lived engine, §5.3, treats node memory
// as one pool across the job sequence). A job reserves through its JobBudget
// view, which also enforces the job's own cap within the pool; reservations
// are released incrementally as the reduce phase drains resident runs (the
// M3R engine's segmentSource), and whatever a failed or finished job still holds
// is returned wholesale by Drain, so the pool provably drains to zero
// between jobs.
//
// Tags need not be jobs: the M3R engine's budgeted inter-job cache reserves
// under one engine-lifetime cache tag in the same per-place pool, so cache
// residents and shuffle runs contend for the same bytes. Such a tag's held
// bytes legitimately survive job boundaries and drain only as entries are
// dropped, spilled, or the engine closes.
//
// Invariants (property-tested): held never goes negative and never exceeds
// the limit, per-job held tallies always sum to the pool total, concurrent
// Reserve/Release conserve bytes, and Drain returns exactly what the job
// still held.
type BudgetPool struct {
	mu    sync.Mutex
	limit int64
	held  int64
	jobs  map[string]int64
}

// NewBudgetPool returns a pool over limit bytes. A non-positive limit admits
// nothing (Reserve always fails); math.MaxInt64 leaves only the views' caps
// to bind.
func NewBudgetPool(limit int64) *BudgetPool {
	return &BudgetPool{limit: limit, jobs: make(map[string]int64)}
}

// Limit returns the pool's byte limit.
func (p *BudgetPool) Limit() int64 { return p.limit }

// Held returns the bytes currently reserved across all jobs.
func (p *BudgetPool) Held() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}

// JobHeld returns the bytes currently reserved by one job.
func (p *BudgetPool) JobHeld(job string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jobs[job]
}

// Jobs returns the number of jobs currently holding reservations.
func (p *BudgetPool) Jobs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.jobs)
}

// Job returns the job-scoped reservation view for id. jobCap, when positive,
// additionally caps this job's total held bytes within the pool (the per-job
// budget key); non-positive means the pool limit alone governs. Views are
// cheap handles: any number may exist per job and they share the job's
// tally.
func (p *BudgetPool) Job(id string, jobCap int64) *JobBudget {
	return &JobBudget{pool: p, id: id, jobCap: jobCap}
}

// JobBudget is one tag's reservation handle on a BudgetPool. The M3R engine
// keeps one per (budgeted job, place), and one per place for its budgeted
// cache, all over the engine's own per-place pools.
type JobBudget struct {
	pool   *BudgetPool
	id     string
	jobCap int64
}

// Pool returns the underlying pool.
func (j *JobBudget) Pool() *BudgetPool { return j.pool }

// Held returns the bytes this job currently holds in the pool.
func (j *JobBudget) Held() int64 { return j.pool.JobHeld(j.id) }

// Reserve charges n bytes to the job, reporting whether they fit both the
// pool limit and the job's cap. Non-positive n is rejected: a zero-byte run
// has nothing to account, and accepting negative reservations would let
// arithmetic bugs masquerade as releases.
func (j *JobBudget) Reserve(n int64) bool {
	if n <= 0 {
		return false
	}
	p := j.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.limit-p.held {
		return false
	}
	if j.jobCap > 0 && p.jobs[j.id]+n > j.jobCap {
		return false
	}
	p.held += n
	p.jobs[j.id] += n
	return true
}

// Release returns n of the job's previously reserved bytes to the pool.
// Releasing more than the job holds is a lifecycle bug (a double release, a
// release of bytes never reserved, or a release charged to the wrong job);
// it panics rather than silently corrupting the ledger into admitting
// unbounded memory — or into eating another job's budget.
func (j *JobBudget) Release(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("engine: JobBudget.Release(%d): negative release", n))
	}
	p := j.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.jobs[j.id] {
		panic(fmt.Sprintf("engine: JobBudget.Release(%d): job %s holds only %d", n, j.id, p.jobs[j.id]))
	}
	p.held -= n
	p.jobs[j.id] -= n
	if p.jobs[j.id] == 0 {
		delete(p.jobs, j.id)
	}
}

// Drain releases every byte the job still holds and returns the count — the
// end-of-job guarantee: whether the job succeeded, failed mid-shuffle, or
// abandoned its merges, its entire claim on the pool ends here, so a
// long-lived engine's pool cannot be bled dry by job remnants. Idempotent:
// a second drain finds nothing and returns 0.
func (j *JobBudget) Drain() int64 {
	p := j.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.jobs[j.id]
	p.held -= n
	delete(p.jobs, j.id)
	return n
}

// releaseAndReserve atomically returns freed previously reserved bytes and
// — under the same lock — tries to reserve n. The eviction path needs the
// exchange atomic: releasing a victim's bytes and then re-reserving in two
// steps would let another job of a shared pool steal the freed bytes in
// between, leaving the evicting job with its victim on disk AND its
// newcomer spilled — strictly worse than not evicting. The release half
// happens unconditionally (the victim is already on its way to disk); only
// the reserve half may fail.
func (j *JobBudget) releaseAndReserve(freed, n int64) bool {
	if freed < 0 {
		panic(fmt.Sprintf("engine: JobBudget.releaseAndReserve(%d, %d): negative release", freed, n))
	}
	p := j.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if freed > p.jobs[j.id] {
		panic(fmt.Sprintf("engine: JobBudget.releaseAndReserve(%d, %d): job %s holds only %d", freed, n, j.id, p.jobs[j.id]))
	}
	p.held -= freed
	p.jobs[j.id] -= freed
	if n > 0 && n <= p.limit-p.held && (j.jobCap <= 0 || p.jobs[j.id]+n <= j.jobCap) {
		p.held += n
		p.jobs[j.id] += n
		return true
	}
	if p.jobs[j.id] == 0 {
		delete(p.jobs, j.id)
	}
	return false
}

// ReserveEvicting is the pool's admission decision with the largest-first
// spill policy: try to reserve n; under contention, ask evict — largest
// first, same job only — to re-spill a cold resident run larger than n,
// retrying after each eviction until n fits or no larger victim remains.
// Evicting only runs strictly larger than the incoming one keeps more small
// runs resident per byte (the policy's point) and guarantees termination:
// every round either admits or shrinks the candidate set.
//
// The evictor returns the victim's reservation size without releasing it;
// the pool folds the release and the retry into one atomic exchange, so on
// a shared pool the freed bytes go to this reservation, not to whichever
// job's Reserve lands first.
//
// Returns admitted (the caller keeps the run resident), contended (the
// first-try reservation failed — POOL_CONTENDED_BYTES observes it), and any
// error the evictor's spill write surfaced.
func (j *JobBudget) ReserveEvicting(n int64, evict func(min int64) (int64, error)) (admitted, contended bool, err error) {
	if j.Reserve(n) {
		return true, false, nil
	}
	for {
		freed, err := evict(n)
		if err != nil {
			return false, true, err
		}
		if freed <= 0 {
			return false, true, nil
		}
		if j.releaseAndReserve(freed, n) {
			return true, true, nil
		}
	}
}
