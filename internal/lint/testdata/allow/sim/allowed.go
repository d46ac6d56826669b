// Package allowfix is a lint fixture for the suppression mechanics: a
// reasoned //pliant:allow covers its own line or the line below; an
// unreasoned one suppresses nothing and is itself a finding; so is one
// naming a rule outside the catalog; anything without a comment is still
// caught (so this package stays lint-dirty).
package allowfix

import "time"

// Spans exercises both placements of a well-formed allow comment.
func Spans() time.Duration {
	t0 := time.Now() //pliant:allow wallclock — fixture: end-of-line suppression
	//pliant:allow wallclock — fixture: standalone suppression covers the next line
	time.Sleep(time.Millisecond)
	return time.Since(t0) // want `\[wallclock\] time\.Since reads the host clock`
}

// Unreasoned shows the malformed form: no reason, no suppression, and the
// comment itself is reported.
func Unreasoned() {
	/*pliant:allow wallclock*/ // want `\[allow\] pliant:allow wallclock has no reason`
	_ = time.Now()             // want `\[wallclock\] time\.Now reads the host clock`
}

// Stale shows an allow that outlived its rule: the name is not in the
// catalog, so the comment guards nothing and is reported.
func Stale() int {
	/*pliant:allow sharedstate — fixture: names a rule the catalog no longer has*/ // want `\[allow\] pliant:allow names "sharedstate", which is not a rule in the catalog`
	return 1
}
