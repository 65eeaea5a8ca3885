package main

import (
	"fmt"
	"math/rand"

	"collabwf/internal/data"
)

// op is one generated client request. Reads carry no bindings; a
// transitions poll picks its `from` at run time (last seen length − 16).
type op struct {
	Kind     string            `json:"kind"`
	Run      string            `json:"run,omitempty"`
	Peer     string            `json:"peer,omitempty"`
	Rule     string            `json:"rule,omitempty"`
	Bindings map[string]string `json:"bindings,omitempty"`
}

const (
	opSubmit      = "submit"
	opView        = "view"
	opTransitions = "transitions"
	opExplain     = "explain"
	opCreate      = "create"
	opArchive     = "archive"
)

// maxInFlight bounds the episodes one client interleaves: it starts a new
// episode only while fewer than this many are unfinished.
const maxInFlight = 3

// crowdPeers is the order read clients cycle through.
var crowdPeers = []string{"w0", "w1", "requester", "platform"}

// ids mints entity ids: a per-stream counter keeps them unique, a seeded
// random suffix makes two seeds pick different ids.
type ids struct {
	prefix string
	n      int
	rnd    *rand.Rand
}

func (g *ids) next() string {
	g.n++
	return fmt.Sprintf("%s%d.%06x", g.prefix, g.n, g.rnd.Intn(1<<24))
}

// values are o's bindings as the coordinator takes them.
func (o op) values() map[string]data.Value {
	b := make(map[string]data.Value, len(o.Bindings))
	for k, v := range o.Bindings {
		b[k] = data.Value(v)
	}
	return b
}

func submit(peer, rule string, kv ...string) op {
	b := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		b[kv[i]] = kv[i+1]
	}
	return op{Kind: opSubmit, Peer: peer, Rule: rule, Bindings: b}
}

// hiringEpisode is one candidate through hiring.wf: clear → cfo_ok →
// approve → hire, all on the seeded candidate id.
func hiringEpisode(g *ids) []op {
	x := g.next()
	return []op{
		submit("hr", "clear", "x", x),
		submit("cfo", "cfo_ok", "x", x),
		submit("ceo", "approve", "x", x),
		submit("hr", "hire", "x", x),
	}
}

// crowdEpisode is one task through crowdsourcing.wf: posted, claimed and
// worked on by both workers, and the seeded winner is accepted and paid.
func crowdEpisode(g *ids) []op {
	t := g.next()
	w := crowdPeers[g.rnd.Intn(2)]
	return []op{
		submit("requester", "post", "t", t, "d", "d"+t),
		submit("w0", "claim0", "t", t, "c", "c0"+t),
		submit("w1", "claim1", "t", t, "c", "c1"+t),
		submit("w0", "submit0", "t", t, "c", "c0"+t, "x", "x0"+t),
		submit("w1", "submit1", "t", t, "c", "c1"+t, "x", "x1"+t),
		submit("platform", "accept", "t", t, "w", w),
		submit("platform", "pay", "t", t, "w", w, "y", "y"+t),
	}
}

// interleaver yields one client's submissions: up to maxInFlight episodes
// are open at once and each step advances a seeded choice among them, so
// the seed fixes the interleaving while every episode stays in order.
type interleaver struct {
	rnd     *rand.Rand
	episode func() []op
	open    [][]op
	left    int // episodes still to start; < 0 means unlimited
}

func newInterleaver(rnd *rand.Rand, episodes int, episode func() []op) *interleaver {
	return &interleaver{rnd: rnd, episode: episode, left: episodes}
}

// next returns the next submission, or false once every episode is done.
func (it *interleaver) next() (op, bool) {
	for len(it.open) < maxInFlight && it.left != 0 {
		it.open = append(it.open, it.episode())
		it.left--
	}
	if len(it.open) == 0 {
		return op{}, false
	}
	k := it.rnd.Intn(len(it.open))
	o := it.open[k][0]
	if it.open[k] = it.open[k][1:]; len(it.open[k]) == 0 {
		it.open = append(it.open[:k], it.open[k+1:]...)
	}
	return o, true
}

// clientRand derives the random stream of one client (or of the offline
// prefix generator, client −1) from the workload seed.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
}

// stream is one writer's submissions: the given number of episodes (< 0:
// unlimited), their ids starting with prefix.
func stream(rnd *rand.Rand, prefix string, episodes int, episode func(*ids) []op) *interleaver {
	g := &ids{prefix: prefix, rnd: rnd}
	return newInterleaver(rnd, episodes, func() []op { return episode(g) })
}

// fleetEpisode is one hiring episode as its own run: create, the four
// submissions under /runs/{id}, archive.
func fleetEpisode(g *ids) []op {
	run := "r" + g.next()
	out := []op{{Kind: opCreate, Run: run}}
	for _, o := range hiringEpisode(g) {
		o.Run = run
		out = append(out, o)
	}
	return append(out, op{Kind: opArchive, Run: run})
}

// readMix yields a reader's requests: peers cycle w0, w1, requester,
// platform, and every block of 8 holds 2 views, 5 transitions polls and 1
// explain in a seeded order.
type readMix struct {
	rnd   *rand.Rand
	n     int
	block []string
}

func newReadMix(rnd *rand.Rand) *readMix { return &readMix{rnd: rnd} }

func (m *readMix) next() op {
	if len(m.block) == 0 {
		m.block = []string{opView, opView, opTransitions, opTransitions, opTransitions,
			opTransitions, opTransitions, opExplain}
		m.rnd.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	o := op{Kind: m.block[0], Peer: crowdPeers[m.n%len(crowdPeers)]}
	m.block = m.block[1:]
	m.n++
	return o
}
