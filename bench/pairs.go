package main

// queue_pairs: the paper's headline workload. T threads alternate Enqueue and
// Dequeue on one PBqueue through the scalar API.

// fifoCheck verifies a FIFO queue's outputs in constant memory. Values are
// producer<<40|n with n counting that producer's enqueues from 0. A consumer
// must see each producer's values in increasing n (FIFO order, and no value
// twice); at the end, counts and sums of n over all consumers plus what is
// left in the queue must equal what each producer enqueued (nothing lost,
// nothing invented, nothing delivered to two consumers).
type fifoCheck struct {
	producers int
	cons      []*fifoConsumer // the last one takes the final snapshot
}

type fifoConsumer struct {
	next  []uint64 // per producer: 1 + the last n seen
	count []uint64
	sum   []uint64
	_     [8]uint64 // keep consumers on separate cache lines
}

const fifoSeqBits = 40

func fifoValue(producer int, n uint64) uint64 { return uint64(producer)<<fifoSeqBits | n }

func newFifoCheck(producers, consumers int) *fifoCheck {
	c := &fifoCheck{producers: producers}
	for i := 0; i <= consumers; i++ {
		c.cons = append(c.cons, &fifoConsumer{
			next:  make([]uint64, producers),
			count: make([]uint64, producers),
			sum:   make([]uint64, producers),
		})
	}
	return c
}

// see checks one value delivered to consumer; only that consumer's goroutine
// may call it.
func (c *fifoCheck) see(consumer int, v uint64) bool {
	p, n := int(v>>fifoSeqBits), v&(1<<fifoSeqBits-1)
	if p >= c.producers {
		return false
	}
	s := c.cons[consumer]
	if n < s.next[p] {
		return false
	}
	s.next[p] = n + 1
	s.count[p]++
	s.sum[p] += n
	return true
}

// final takes what is left in the queue, head first, and how many values each
// producer enqueued; it returns the number of identities that do not hold.
func (c *fifoCheck) final(left []uint64, produced []uint64) (failed uint64) {
	rest := len(c.cons) - 1
	for _, v := range left {
		if !c.see(rest, v) {
			failed++
		}
	}
	for p := 0; p < c.producers; p++ {
		var count, sum uint64
		for _, s := range c.cons {
			count += s.count[p]
			sum += s.sum[p]
			if s.next[p] > produced[p] {
				failed++ // a value the producer never enqueued
			}
		}
		n := produced[p]
		if count != n || sum != n*(n-1)/2 {
			failed++
		}
	}
	return failed
}

type pairs struct {
	threads int
	sys     *system
	q       *queue
	chk     *fifoCheck
	next    []paddedCount // per thread: n of its next enqueue
	deqs    []paddedCount // per thread: successful dequeues
}

type paddedCount struct {
	n uint64
	_ [7]uint64
}

var pairsClasses = []class{
	{name: "Enqueue", span: "queue.enqueue"},
	{name: "Dequeue", span: "queue.dequeue", read: true},
}

func preparePairs(cfg trialCfg) func() (instance, error) {
	return func() (instance, error) { return setupPairs(cfg), nil }
}

func setupPairs(cfg trialCfg) *pairs {
	s := newSystem(false)
	p := &pairs{
		threads: cfg.threads,
		sys:     s,
		q:       newPairsQueue(s, cfg.threads),
		// The prefill is enqueued under a producer id of its own.
		chk:  newFifoCheck(cfg.threads+1, cfg.threads),
		next: make([]paddedCount, cfg.threads),
		deqs: make([]paddedCount, cfg.threads),
	}
	for n := uint64(0); n < queuePrefill; n++ {
		p.q.Enqueue(0, fifoValue(cfg.threads, n))
	}
	return p
}

func (p *pairs) heapStats() pmemStats { return p.sys.Stats() }
func (p *pairs) begin(bool)           {}

func (p *pairs) layer(bool, *measured, map[string]float64) {}

func (p *pairs) run(w *worker, ph phase) {
	tid := w.id
	next, deqs := &p.next[tid].n, &p.deqs[tid].n
	bad := corrupt == "dequeue" && tid == 0
	for i := w.seq; ; i++ {
		timed := ph.traced || i%sampleStride == 0
		var t0 int64
		if timed {
			if t0 = now(); t0 >= ph.deadline {
				w.seq = i
				return
			}
		}
		ci := int(i & 1)
		if ci == 0 {
			p.q.Enqueue(tid, fifoValue(tid, *next))
			*next++
		} else {
			v, ok := p.q.Dequeue(tid)
			if bad {
				v, bad = v^1<<20, false
			}
			// The queue never drains: every thread enqueues before it dequeues.
			if ok {
				*deqs++
			}
			if !ok || !p.chk.see(tid, v) {
				w.failed++
			}
		}
		if timed {
			w.record(ph.traced, pairsClasses[ci], ci, i, t0, now())
		}
		w.ops++
	}
}

func (p *pairs) finish(map[string]float64) (uint64, error) {
	left := p.q.Snapshot()
	produced := make([]uint64, p.threads+1)
	produced[p.threads] = queuePrefill
	var enq, deq uint64
	for t := 0; t < p.threads; t++ {
		produced[t] = p.next[t].n
		enq += p.next[t].n
		deq += p.deqs[t].n
	}
	failed := p.chk.final(left, produced)
	if enq-deq+queuePrefill != uint64(p.q.Len()) {
		failed++
	}
	return failed, nil
}
