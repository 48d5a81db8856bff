package shell

import (
	"fmt"
	"io"
	"strings"

	"asymstream/internal/transport"
	"asymstream/internal/transput"
)

// Remote streams: `remote unix:/tmp/eden.sock count 100 | upcase | print`
// pulls a stream out of another OS process's kernel through an InPort
// on a bridge proxy, then runs the rest of the pipeline locally.  The
// serving side is `edensh -serve unix:/tmp/eden.sock` (or edenfs),
// which honours the source table's words through Opener.

// peer returns a cached bridge connection to addr, dialing on first
// use.  Connections stay open for the session (remote streams
// multiplex on them) and close with it.
func (s *Session) peer(addr string) (*transport.Peer, error) {
	if p, ok := s.peers[addr]; ok {
		return p, nil
	}
	p, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	if s.peers == nil {
		s.peers = make(map[string]*transport.Peer)
	}
	s.peers[addr] = p
	return p, nil
}

// remoteSource builds the SourceFunc for a `remote ADDR spec...` stage.
func (s *Session) remoteSource(st stageSpec) (transput.SourceFunc, error) {
	if len(st.args) < 2 {
		return nil, fmt.Errorf("shell: remote needs an address and a stream spec (remote unix:/tmp/eden.sock count 100)")
	}
	addr := st.args[0].text
	// The spec is one stage of shell words, quoted where the far lexer
	// would otherwise split or unescape them.
	parts := make([]string, len(st.args)-1)
	for i, a := range st.args[1:] {
		parts[i] = a.text
		if a.text == "" || strings.ContainsAny(a.text, " \t|\"=") {
			parts[i] = `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(a.text) + `"`
		}
	}
	spec := strings.Join(parts, " ")
	return func(out transput.ItemWriter) error {
		p, err := s.peer(addr)
		if err != nil {
			return err
		}
		in, err := transport.OpenStream(s.K, p, spec)
		if err != nil {
			return err
		}
		defer transport.CloseStream(s.K, in)
		for {
			item, err := in.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := transput.PutOwned(out, item); err != nil {
				return err
			}
		}
	}, nil
}

// Opener returns the bridge OpenFunc this session honours when serving
// remote clients (edensh -serve): a spec is one stage of the source
// table, lexed as a local line is.  `remote` is refused, so a served
// session never dials onward for a client.
func (s *Session) Opener() transport.OpenFunc {
	return func(spec string) (transport.ItemSource, error) {
		toks, err := lex(spec)
		if err != nil {
			return nil, err
		}
		p, err := parse(toks)
		if err != nil {
			return nil, err
		}
		e, ok := lookup(p.stages[0].name)
		if !ok || len(p.stages) != 1 || len(p.opts) != 0 {
			return nil, fmt.Errorf("shell: unknown remote spec %q (try %s)", spec, sourceWords())
		}
		return e.open(s, p.stages[0].args)
	}
}
