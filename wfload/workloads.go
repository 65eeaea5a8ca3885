package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"
)

// sizes is the work of one round. Rounds repeat (on fresh state where the
// workload says so) until the pass's time is used; every round of a
// workload does the same work, so their rates are comparable.
type sizes struct {
	hiringEpisodes     int // per hiring-long round and client, 4 events each
	fleetRuns          int // per hiring-fleet round and client
	crowdReads         int // per crowd-read round and client
	crowdReadPrefix    int // crowdsourcing episodes (7 events each) generated offline
	crowdMixedPrefix   int
	crowdMixedEpisodes int // appended per crowd-mixed round
}

// benchSizes grow a hiring-long run to 3000 events (the run-length
// dependent layers do most of their work late in it) and keep every round
// at about two seconds, so a run's median is over several rounds.
var benchSizes = sizes{
	hiringEpisodes:     375,
	fleetRuns:          250,
	crowdReads:         150,
	crowdReadPrefix:    300,
	crowdMixedPrefix:   150,
	crowdMixedEpisodes: 200,
}

// numClients is how many closed-loop clients hiring-long, hiring-fleet and
// crowd-read run at once: one per core of the 2-core host the benchmark
// was sized on. Two writers let submits meet in one group commit and
// contend for the coordinator's lock; crowd-mixed has its own pair, one
// writer and one reader.
const numClients = 2

// tailWindow is how far before the released length a transitions poll
// starts: a poll from index 0 costs seconds and gigabytes on a long run.
const tailWindow = 16

// workload is one traffic mix against wfserve.
type workload struct {
	name    string
	why     string
	spec    string          // under examples/specs
	episode func(*ids) []op // one episode of the spec's submissions
	// prefix is the number of episodes generated offline into the initial
	// data dir (nil: the server starts empty).
	prefix func(sizes) int
	// fresh rounds each start a new server on a fresh copy of the initial
	// data dir; otherwise every round runs on the same server.
	fresh bool
	round func(ctx context.Context, r *runner, p *proc) (*roundOut, error)
	// burstRun is the run the crash check's untimed burst of episodes
	// targets ("" = the default run).
	burstRun string
}

var workloads = []*workload{
	{
		name:    "hiring-long",
		why:     "two clients grow one Hiring run to 3000 events per round: the run-length-dependent layers (explainer upkeep, view materialization, snapshots, heap) dominate",
		spec:    "hiring.wf",
		episode: hiringEpisode,
		fresh:   true,
		round:   hiringLongRound,
	},
	{
		name:     "hiring-fleet",
		why:      "two clients run the same episodes, each its own short run (create, 4 submits, archive): fsync, the HTTP edge and run lifecycle dominate, run length never grows",
		spec:     "hiring.wf",
		episode:  hiringEpisode,
		fresh:    true,
		round:    fleetRound,
		burstRun: "crash",
	},
	{
		name:    "crowd-read",
		why:     "two clients read a static 2100-event crowdsourcing prefix: snapshot reads, view-cache hits, frozen explainer reports, JSON encoding",
		spec:    "crowdsourcing.wf",
		episode: crowdEpisode,
		prefix:  func(s sizes) int { return s.crowdReadPrefix },
		round:   crowdReadRound,
	},
	{
		name:    "crowd-mixed",
		why:     "one writer appends 1400 events to a 1050-event prefix while one reader polls: view-cache misses, snapshot publish competing with reads",
		spec:    "crowdsourcing.wf",
		episode: crowdEpisode,
		prefix:  func(s sizes) int { return s.crowdMixedPrefix },
		fresh:   true,
		round:   crowdMixedRound,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// roundOut is what one measured round observed.
type roundOut struct {
	dur   time.Duration
	calls []call
	// archived counts runs archived (hiring-fleet).
	archived int
	// rssGrowMB is the server's resident-set growth over the round.
	rssGrowMB float64
}

// checkAcks verifies that the acknowledged indices are distinct and
// exactly cover [from, to).
func checkAcks(acks []int, from, to int) error {
	all := append([]int(nil), acks...)
	sort.Ints(all)
	if len(all) != to-from {
		return fmt.Errorf("acked %d submissions, run grew by %d", len(all), to-from)
	}
	for k, idx := range all {
		if idx != from+k {
			return fmt.Errorf("acked indices are not a permutation of [%d,%d): position %d holds %d", from, to, k, idx)
		}
	}
	return nil
}

// drive runs one client's submissions to the end of the stream and returns
// the acknowledged indices.
func drive(ctx context.Context, cn *conn, it *interleaver) (acks []int) {
	for o, ok := it.next(); ok; o, ok = it.next() {
		if res, err := cn.do(ctx, o, 0); err == nil {
			acks = append(acks, res.index)
		}
	}
	return acks
}

// hiringLongRound grows one run: each client drives its own episodes, and
// together their acknowledged indices cover the run.
func hiringLongRound(ctx context.Context, r *runner, p *proc) (*roundOut, error) {
	acks := make([][]int, numClients)
	out := r.together(p, numClients, func(c int, cn *conn) {
		acks[c] = drive(ctx, cn, stream(clientRand(r.seed, c), fmt.Sprintf("h%d.", c), r.sz.hiringEpisodes, hiringEpisode))
	})
	r.check(checkAcks(slices.Concat(acks...), 0, numClients*4*r.sz.hiringEpisodes))
	return out, nil
}

// fleetRound has each client create, feed and archive its own runs.
func fleetRound(ctx context.Context, r *runner, p *proc) (*roundOut, error) {
	rss0, err := p.rssMB()
	if err != nil {
		return nil, err
	}
	ackErrs := make([]error, numClients)
	out := r.together(p, numClients, func(c int, cn *conn) {
		g := &ids{prefix: fmt.Sprintf("f%d.", c), rnd: clientRand(r.seed, c)}
		for e := 0; e < r.sz.fleetRuns; e++ {
			var acks []int
			for _, o := range fleetEpisode(g) {
				if res, err := cn.do(ctx, o, 0); err == nil && o.Kind == opSubmit {
					acks = append(acks, res.index)
				}
			}
			if err := checkAcks(acks, 0, 4); err != nil && ackErrs[c] == nil {
				ackErrs[c] = fmt.Errorf("fleet run: %w", err)
			}
		}
	})
	rss1, err := p.rssMB()
	if err != nil {
		return nil, err
	}
	out.archived, out.rssGrowMB = numClients*r.sz.fleetRuns, rss1-rss0
	r.check(ackErrs...)
	return out, nil
}

// crowdReadRound has each client run its own read mix over the static
// prefix, checking every answer.
func crowdReadRound(ctx context.Context, r *runner, p *proc) (*roundOut, error) {
	readErrs := make([]error, numClients)
	from := r.expect.len - tailWindow
	out := r.together(p, numClients, func(c int, cn *conn) {
		mix := newReadMix(clientRand(r.seed, c))
		for k := 0; k < r.sz.crowdReads; k++ {
			o := mix.next()
			if res, err := cn.do(ctx, o, from); err == nil && readErrs[c] == nil {
				readErrs[c] = r.expect.verify(o, from, res)
			}
		}
	})
	r.check(readErrs...)
	return out, nil
}

// crowdMixedRound runs one writer and one reader until the writer is done.
func crowdMixedRound(ctx context.Context, r *runner, p *proc) (*roundOut, error) {
	base := r.sz.crowdMixedPrefix * 7
	var acks []int
	var readErr error
	done := make(chan struct{})
	out := r.together(p, 2, func(c int, cn *conn) {
		if c == 0 {
			defer close(done)
			acks = drive(ctx, cn, stream(clientRand(r.seed, 0), "m.", r.sz.crowdMixedEpisodes, crowdEpisode))
			return
		}
		mix := newReadMix(clientRand(r.seed, 1))
		last := base
		for {
			select {
			case <-done:
				return
			default:
			}
			o := mix.next()
			from := last - tailWindow
			res, err := cn.do(ctx, o, from)
			if err != nil || o.Kind != opTransitions {
				continue
			}
			if err := checkPoll(res, from, last); err != nil && readErr == nil {
				readErr = err
			}
			last = res.len
		}
	})
	r.check(checkAcks(acks, base, base+r.sz.crowdMixedEpisodes*7), readErr)
	return out, nil
}

// checkPoll verifies a tail poll against a growing run: the released length
// never shrinks and every transition lies in [from, len), ascending.
func checkPoll(res result, from, last int) error {
	if res.len < last {
		return fmt.Errorf("transitions: released length went back from %d to %d", last, res.len)
	}
	prev := from - 1
	for _, t := range res.trans {
		if t.Index <= prev || t.Index >= res.len {
			return fmt.Errorf("transitions: index %d outside (%d, %d)", t.Index, prev, res.len)
		}
		prev = t.Index
	}
	return nil
}
