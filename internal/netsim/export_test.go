package netsim

import "net"

// TearDir hands a test the two ends of direction a→b by address, to
// wrap before the first Transmit (and to close under traffic).
func (s *SocketNetwork) TearDir(a, b int) (write, read *net.Conn) {
	d := s.dirs[a*s.nodes+b]
	return &d.conn, &d.rconn
}
