package wal

import (
	"sync"
	"time"
)

// Failpoints injects failures into a Log for crash and fault testing:
// appends that fail before touching disk, partial writes (a record torn
// mid-line, as a real crash would leave it), fsync errors, and slow or
// held fsyncs. All hooks are safe to arm and disarm concurrently with
// appends.
type Failpoints struct {
	mu sync.Mutex
	// failBefore rejects the append of the given seq before any bytes are
	// written.
	failBefore map[int]error
	// partial maps seq → number of bytes of the record to write before the
	// append "crashes".
	partial map[int]int
	// nextSync is returned (and cleared) by the next sync attempt.
	nextSync error
	// slowSync delays every sync attempt; used to force group-commit
	// batching deterministically in tests.
	slowSync time.Duration
	// hold, while non-nil, blocks every sync attempt until it is closed;
	// held counts the attempts blocked on it.
	hold chan struct{}
	held int
}

// NewFailpoints returns an empty failpoint set.
func NewFailpoints() *Failpoints {
	return &Failpoints{failBefore: make(map[int]error), partial: make(map[int]int)}
}

// FailAppend arms a failure for the append of record seq: it returns err
// without writing anything.
func (fp *Failpoints) FailAppend(seq int, err error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.failBefore[seq] = err
}

// TornWrite arms a partial write for record seq: only n bytes of the
// encoded record reach the file, then the append fails — simulating a
// crash mid-write.
func (fp *Failpoints) TornWrite(seq, n int) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.partial[seq] = n
}

// FailNextSync arms an error for the next fsync attempt.
func (fp *Failpoints) FailNextSync(err error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.nextSync = err
}

// SlowSync delays every sync attempt by d until disarmed (d = 0 or Reset).
// Tests use it to hold one group fsync open while more submissions arrive,
// forcing them to coalesce into the next batch.
func (fp *Failpoints) SlowSync(d time.Duration) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.slowSync = d
}

// HoldSync blocks every sync attempt from now until release is called, so
// a test can keep one group commit pending for as long as it needs, with
// no clock involved. release is idempotent.
func (fp *Failpoints) HoldSync() (release func()) {
	ch := make(chan struct{})
	fp.mu.Lock()
	fp.hold = ch
	fp.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			fp.mu.Lock()
			if fp.hold == ch {
				fp.hold = nil
			}
			fp.mu.Unlock()
			close(ch)
		})
	}
}

// HeldSyncs reports how many sync attempts are blocked on a HoldSync.
func (fp *Failpoints) HeldSyncs() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.held
}

// Reset disarms every failpoint. A sync attempt already blocked on a
// HoldSync stays blocked until that hold is released.
func (fp *Failpoints) Reset() {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.failBefore = make(map[int]error)
	fp.partial = make(map[int]int)
	fp.nextSync = nil
	fp.slowSync = 0
	fp.hold = nil
}

func (fp *Failpoints) beforeAppend(seq int) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if err, ok := fp.failBefore[seq]; ok {
		delete(fp.failBefore, seq)
		return err
	}
	return nil
}

// partialWrite reports how many bytes of a size-byte record to write
// before failing; ok is false when no tear is armed for seq.
func (fp *Failpoints) partialWrite(seq, size int) (int, bool) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	n, ok := fp.partial[seq]
	if !ok {
		return 0, false
	}
	delete(fp.partial, seq)
	if n > size {
		n = size
	}
	return n, true
}

func (fp *Failpoints) syncErr() error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	err := fp.nextSync
	fp.nextSync = nil
	return err
}

// delaySync blocks while a HoldSync is armed, then sleeps for the armed
// SlowSync duration (no-op when neither is armed). Called off-lock by the
// sync path.
func (fp *Failpoints) delaySync() {
	fp.mu.Lock()
	hold, d := fp.hold, fp.slowSync
	if hold != nil {
		fp.held++
	}
	fp.mu.Unlock()
	if hold != nil {
		<-hold
		fp.mu.Lock()
		fp.held--
		fp.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
}
