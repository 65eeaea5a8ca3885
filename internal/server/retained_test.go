package server

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"testing"
	"unsafe"

	"collabwf/internal/data"
	"collabwf/internal/program"
	"collabwf/internal/schema"
	"collabwf/internal/workload"
)

// retainedChild is the argument on which the test binary, run again by
// TestRetainedBytesPerEvent, takes that test's measurement itself.
const retainedChild = "retained-bytes-child"

// A live run retains a bounded number of bytes per event: a 3000-event
// Hiring run and a 2100-event crowdsourcing run grown through Submit, each
// with every peer's explainer and the coordinator's snapshot. An event
// leaves its step, its event and slots, its 32-byte effects, the row
// records and 32-byte tree nodes its writes made, its lifecycle entries
// and its explainer rows (the schema, program and faithful packages pin
// those sizes). Sharing each row record between tree versions and effects,
// halving nodes, effects and lifecycle entries, and keeping only
// modification edges per peer brought Hiring from 712 bytes per event to
// 446 and crowdsourcing from 1263 to 822. Measured as in
// TestTransitionsTailRetainsNoViews: in a fresh process of the test
// binary, as the heap the last GC marked live. Each bound is its measured
// figure plus 10%.
func TestRetainedBytesPerEvent(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes what the heap holds")
	}
	if got := unsafe.Sizeof(program.Effect{}); got != 32 {
		t.Errorf("an effect takes %d bytes, want 32", got)
	}
	if flag.Arg(0) != retainedChild {
		out, err := exec.Command(os.Args[0], "-test.run=^TestRetainedBytesPerEvent$",
			"-test.count=1", "-test.v", retainedChild).CombinedOutput()
		if err != nil {
			t.Fatalf("measuring in a child process: %v\n%s", err, out)
		}
		t.Logf("child process:\n%s", out)
		return
	}
	const (
		hiringEvents, hiringBound = 3000, 446 * 11 / 10
		crowdEvents, crowdBound   = 2100, 822 * 11 / 10
	)
	hiring := workload.Hiring()
	base := heapSince(0)
	c := New("Hiring", hiring)
	for i := 0; c.Len() < hiringEvents; i++ {
		x := map[string]data.Value{"x": data.Value(fmt.Sprintf("c%d", i))}
		for _, s := range [4][2]string{{"hr", "clear"}, {"cfo", "cfo_ok"}, {"ceo", "approve"}, {"hr", "hire"}} {
			if _, err := c.Submit(schema.Peer(s[0]), s[1], x); err != nil {
				t.Fatalf("episode %d %s: %v", i, s[1], err)
			}
		}
	}
	perHiring := heapSince(base) / hiringEvents
	runtime.KeepAlive(c)

	base = heapSince(0)
	c = New("Crowdsourcing", crowdProgram(t))
	driveCrowd(t, c, crowdEvents/7, nil)
	perCrowd := heapSince(base) / crowdEvents
	runtime.KeepAlive(c)

	t.Logf("retained bytes per event: Hiring %d (%d events), crowdsourcing %d (%d events)",
		perHiring, hiringEvents, perCrowd, crowdEvents)
	if perHiring > hiringBound {
		t.Errorf("Hiring retains %d bytes per event, bound %d", perHiring, hiringBound)
	}
	if perCrowd > crowdBound {
		t.Errorf("crowdsourcing retains %d bytes per event, bound %d", perCrowd, crowdBound)
	}
}
