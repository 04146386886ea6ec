package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Locksend enforces the fan-out invariant from DESIGN.md §5a: no blocking
// operation — channel send, time.Sleep, network I/O, or acquiring another
// lock — may happen while a sync.Mutex or sync.RWMutex is held. The rtmp
// fan-out rewrite (103→2 allocs/frame, Fig. 14) depends on membership locks
// never being held across the per-viewer channel sends; a regression here
// reintroduces the head-of-line blocking the paper's §5 measurements rule
// out, and -race cannot see it because it is a liveness bug, not a data
// race.
//
// The analysis is intraprocedural: the held-lock walker (lockwalk.go) tracks
// which mutexes each function body holds, keyed by the receiver expression
// ("s.mu") normalized through embedded-struct promotion (lockclass.go), so
// local and parameter mutexes count too. Read locks are tracked the same way
// — readers block writers, so a blocking operation under an RLock stalls the
// whole fan-out just as effectively. The body includes the literals it
// invokes on the spot; `go` bodies and stored literals are roots of their
// own, since they run elsewhere or later.
var Locksend = &analysis.Analyzer{
	Name: "locksend",
	Doc: "flags channel sends, time.Sleep, network I/O, and nested lock " +
		"acquisition while a sync.Mutex/RWMutex is held or read-held (the " +
		"fan-out invariant of DESIGN.md §5a)",
	Run: runLocksend,
}

func runLocksend(pass *analysis.Pass) (interface{}, error) {
	t := newLockTracker(pass)
	ls := locksendVisitor{pass}
	for _, file := range pass.Files {
		t.walkLocks(file, func(*ast.FuncDecl) lockVisitor { return ls })
	}
	return nil, nil
}

// locksendVisitor reports the blocking operations and nested acquisitions
// the walker meets under a held lock.
type locksendVisitor struct {
	pass *analysis.Pass
}

func (ls locksendVisitor) acquire(call *ast.CallExpr, lk heldLock, held []heldLock) {
	for _, h := range held {
		ls.pass.Reportf(call.Pos(),
			"acquiring %s while %s is held (locked at %s); nested locking on the fan-out path risks deadlock and head-of-line blocking",
			lk.key, h.key, ls.pass.Position(h.pos))
	}
}

func (ls locksendVisitor) visit(n ast.Node, held []heldLock) {
	if len(held) == 0 {
		return
	}
	what := "channel send"
	if call, ok := n.(*ast.CallExpr); ok {
		if what, ok = ls.blockingCall(call); !ok {
			return
		}
	}
	for _, h := range held {
		ls.pass.Reportf(n.Pos(),
			"%s while %s is held (locked at %s); release the lock first — snapshot under the lock, operate on the copy (DESIGN.md §5a)",
			what, h.key, ls.pass.Position(h.pos))
	}
}

// escape: a literal's findings do not depend on where it was made.
func (ls locksendVisitor) escape(bool) lockVisitor { return ls }

// netBlocking names the net / net/http operations that block on the wire.
// An allowlist, because those packages are full of pure accessors
// (Addr.String, Request.Context, …) that are fine to call under a lock.
var netBlocking = map[string]bool{
	"Dial": true, "DialContext": true, "DialTimeout": true, "DialTCP": true,
	"DialUDP": true, "DialIP": true, "DialUnix": true,
	"Listen": true, "ListenPacket": true, "ListenTCP": true, "ListenUDP": true,
	"Accept": true, "AcceptTCP": true, "AcceptUnix": true,
	"Read": true, "ReadFrom": true, "ReadFromUDP": true, "ReadMsgUDP": true,
	"Write": true, "WriteTo": true, "WriteToUDP": true, "WriteMsgUDP": true,
	"Get": true, "Post": true, "PostForm": true, "Head": true, "Do": true,
	"RoundTrip": true, "Serve": true, "ServeTLS": true,
	"ListenAndServe": true, "ListenAndServeTLS": true, "Shutdown": true,
	"LookupHost": true, "LookupIP": true, "LookupAddr": true, "LookupCNAME": true,
}

// blockingCall reports whether call is time.Sleep or blocking network I/O
// (a net / net/http dial, read, write, serve, or request).
func (ls locksendVisitor) blockingCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := ls.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "net", "net/http":
		if netBlocking[fn.Name()] {
			return "network I/O (" + fn.Pkg().Name() + "." + fn.Name() + ")", true
		}
	}
	return "", false
}
