package prof

import "flag"

// Flags is the profiling flag block of the one-shot cmds, registered the
// way obs.RegisterLogFlags registers logging.
type Flags struct {
	// Enabled turns the profiler on.
	Enabled bool
	// Top caps the rule rows of rendered cost tables (0 = all).
	Top int
}

// RegisterFlags registers -profile and -profile-top on fs and returns the
// destination struct. The one-shot cmds that print a cost table use it;
// wfserve renders none and registers only its -profile-rules switch.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Enabled, "profile", false,
		"enable the rule-engine cost profiler (per-rule attribution; see the cost table)")
	fs.IntVar(&f.Top, "profile-top", 15,
		"rule rows shown in profiler cost tables (0 = all)")
	return f
}

// New returns a live profiler when the flag enabled one, else nil. Every
// profiler hook is nil-safe, so callers thread the result unconditionally.
func (f *Flags) New() *Profiler {
	if f == nil || !f.Enabled {
		return nil
	}
	return New()
}
