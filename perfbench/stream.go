package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mnm-model/mnm/internal/transport"
)

const (
	streamGroups = 4
	// streamWindow caps the messages sent but not yet received: the
	// sender blocks once it is reached, so latency stays a property of
	// the program rather than of an unbounded backlog.
	streamWindow = 512
	// sendRing holds send timestamps by message index; it must exceed
	// streamWindow so no slot is reused while its message is in flight.
	sendRing = 1024
	// idleSpins is how many empty sweeps the receiver yields through
	// before it sleeps, which lets the scheduler run the network poller.
	idleSpins = 4
)

// seqChecker verifies that each group delivers every sequence number
// exactly once and in order.
type seqChecker struct {
	next []int // next expected sequence number per group
}

func newSeqChecker(groups int) *seqChecker { return &seqChecker{next: make([]int, groups)} }

// observe checks one delivery of seq on group g; the error describes a
// duplicate, a gap or a reordering.
func (c *seqChecker) observe(g, seq int) error {
	want := c.next[g]
	switch {
	case seq == want:
		c.next[g]++
		return nil
	case seq < want:
		return fmt.Errorf("group %d: seq %d delivered again or out of order (expected %d)", g+1, seq, want)
	default:
		c.next[g] = seq + 1
		return fmt.Errorf("group %d: seq %d delivered while %d..%d are missing", g+1, seq, want, seq-1)
	}
}

// finish checks that group g delivered all of its sent messages.
func (c *seqChecker) finish(sent []int) []error {
	var errs []error
	for g, n := range sent {
		if c.next[g] != n {
			errs = append(errs, fmt.Errorf("group %d: delivered up to seq %d of %d sent", g+1, c.next[g], n))
		}
	}
	return errs
}

// streamFixture is one bring-up of the stream workload: streamGroups
// groups of two processes, process 0 on node A and process 1 on node B,
// driven through the transports' group views.
type streamFixture struct {
	m    *mesh
	send [streamGroups]transport.Transport // node A's views
	recv [streamGroups]transport.Transport // node B's views
}

func runStream(o phaseOpts) (*phaseResult, error) {
	res := &phaseResult{lat: newReservoir(latencySamples, o.seed)}
	build := func() (*streamFixture, time.Duration, error) {
		t0 := time.Now()
		m, err := newMesh(meshOpts{})
		if err != nil {
			return nil, 0, err
		}
		f := &streamFixture{m: m}
		var links []link
		for g := range f.send {
			views, err := m.openLinkGroup(transport.GroupID(g+1), o.rec)
			if err != nil {
				m.close()
				return nil, 0, err
			}
			f.send[g], f.recv[g] = views[0], views[1]
			links = append(links, link{views[0], 0, 1}, link{views[1], 1, 0})
		}
		if err := awaitLinks(links); err != nil {
			m.close()
			return nil, 0, err
		}
		return f, time.Since(t0), nil
	}
	f, setups, err := bringUps(o, build, func(f *streamFixture) error { return f.m.close() })
	if err != nil {
		return nil, err
	}
	res.setup = setups
	defer f.m.close()

	// The generator: ints round-robin across the groups, each group's
	// payload its own sequence number, at most streamWindow in flight.
	var (
		slots   = make(chan struct{}, streamWindow) // a semaphore: one token per message in flight
		stop    = make(chan struct{})
		sentAt  [sendRing]atomic.Int64
		sent    atomic.Int64
		sendErr error // read once the sender has exited
		wg      sync.WaitGroup
	)
	epoch := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case slots <- struct{}{}:
			case <-stop:
				return
			}
			g := i % streamGroups
			sentAt[i%sendRing].Store(int64(time.Since(epoch)))
			if err := f.send[g].Send(0, 1, i/streamGroups); err != nil {
				sendErr = err
				<-slots
				return
			}
			sent.Store(int64(i + 1))
		}
	}()

	// The receiver: sweeps the groups' mailboxes until the window has
	// ended and every sent message has arrived.
	check := newSeqChecker(streamGroups)
	mt := &meter{nodes: f.m.regs[:], rec: o.rec}
	warmEnd := time.Now().Add(o.warm)
	end := warmEnd.Add(o.dur)
	var received int64
	measuring, stopped := false, false
	var drainBy time.Time
	idle := 0
	for {
		got := false
		for g := range f.recv {
			m, ok := f.recv[g].TryRecv(1)
			if measuring {
				res.polls++
			}
			if !ok {
				if measuring {
					res.empties++
				}
				continue
			}
			got = true
			now := int64(time.Since(epoch))
			<-slots
			received++
			seq, isInt := m.Payload.(int)
			if !isInt {
				res.fail("group %d: payload %v (%T), want an int", g+1, m.Payload, m.Payload)
				continue
			}
			if err := check.observe(g, seq); err != nil {
				res.fail("%v", err)
				continue
			}
			if measuring {
				d := time.Duration(now - sentAt[(seq*streamGroups+g)%sendRing].Load())
				res.ops++
				res.lat.add(d)
				res.slots.add(d)
			}
		}
		if got {
			idle = 0
		} else if idle++; idle <= idleSpins {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond)
		}
		if received&255 != 0 && got {
			continue // check the clock every 256 deliveries while busy
		}
		now := time.Now()
		if measuring {
			res.slots.tick(now)
		}
		switch {
		case !measuring && !stopped && !now.Before(warmEnd):
			measuring = true
			mt.start()
			res.slots.begin(now)
		case measuring && !now.Before(end):
			measuring = false
			res.slots.end(now)
			mt.stop(res)
			close(stop)
			wg.Wait()
			stopped = true
			drainBy = now.Add(phaseSlack)
		case stopped && received == sent.Load():
			if sendErr != nil {
				res.fail("send: %v", sendErr)
			}
			res.attempted = sent.Load()
			total := int(sent.Load())
			perGroup := make([]int, streamGroups)
			for g := range perGroup {
				perGroup[g] = total / streamGroups
				if g < total%streamGroups {
					perGroup[g]++
				}
			}
			for _, e := range check.finish(perGroup) {
				res.fail("%v", e)
			}
			return res, nil
		case stopped && now.After(drainBy):
			res.attempted = sent.Load()
			res.fail("%d of %d messages never delivered", sent.Load()-received, sent.Load())
			return res, nil
		}
	}
}
