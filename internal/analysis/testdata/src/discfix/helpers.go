package discfix

import (
	"asymstream/internal/transput"
)

// Untagged helpers: free to use either side themselves; the analyzer
// only constrains what tagged code can reach.

func helperHop() any { return pusherMaker() }

func pusherMaker() any {
	var w *transput.Pusher
	return w
}

func readerMaker() any {
	var p *transput.InPort
	return p
}
