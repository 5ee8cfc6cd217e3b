// Package workers keeps goroutines parked between jobs, so a job that
// finds one parked costs a channel send instead of a new goroutine. The
// transport runs its request handlers on them and the gateway its
// endorsement fan-out.
package workers

import "sync"

// MaxIdle caps the workers a pool keeps parked between jobs. It bounds
// only the cache, never concurrency: a job that finds no parked worker
// starts a new one.
const MaxIdle = 64

// Job is one unit of work a pool runs.
type Job interface {
	Run()
}

// Pool runs jobs on parked workers. Its zero value is ready to use. A
// pool never bounds concurrency, so a job never waits for another to
// end, and the order in which jobs start is not the order of Go calls.
type Pool[J Job] struct {
	// mu orders closed against the worker accounting: Go's wg.Add and
	// Wait's wg.Wait must not race once the counter may be zero
	// (sync.WaitGroup's reuse rule). It also guards idle, the LIFO
	// cache of parked workers' job channels; wg counts worker
	// goroutines, parked ones included.
	mu     sync.Mutex
	closed bool
	idle   []chan J
	wg     sync.WaitGroup
}

// Go runs j on the most recently parked worker, or on a new one if none
// is parked. It reports false, and runs nothing, once Close was called.
func (p *Pool[J]) Go(j J) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	if n := len(p.idle); n > 0 {
		jobs := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		jobs <- j // a parked worker's channel is empty
		return true
	}
	p.wg.Add(1)
	p.mu.Unlock()
	jobs := make(chan J, 1)
	jobs <- j
	go p.work(jobs)
	return true
}

// work runs one worker: it runs its job, then parks on its channel for
// the next one, until the cache is full or the pool closes.
func (p *Pool[J]) work(jobs chan J) {
	defer p.wg.Done()
	for j := range jobs {
		j.Run()
		if !p.park(jobs) {
			return
		}
	}
}

// park pushes an idle worker's job channel onto the cache. It reports
// false, and the worker exits, if the cache is full or the pool closed.
func (p *Pool[J]) park(jobs chan J) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle) >= MaxIdle {
		return false
	}
	p.idle = append(p.idle, jobs)
	return true
}

// Close refuses every later job and ends the parked workers. A busy
// worker ends when its job does; Wait waits for that. Only the first
// call does anything.
func (p *Pool[J]) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	// No worker parks once closed is set, so this list is the last one.
	for _, jobs := range idle {
		close(jobs)
	}
}

// Wait returns once every worker has ended. Call it after Close.
func (p *Pool[J]) Wait() { p.wg.Wait() }
