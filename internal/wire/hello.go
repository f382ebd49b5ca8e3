package wire

import (
	"fmt"
	"io"
	"net"
	"time"
)

// The hello is the one exchange framed in v1 JSON (WriteFrame,
// ReadFrame), so that a peer of any revision can read the answer to it.
// Everything after it speaks ProtocolVersion: Binary on a connection of
// its own, Link on a router↔worker link. A peer asking for anything else
// is refused, never served in an older codec (DESIGN.md §13).

// AcceptHello answers the hello that opens an inbound connection, read
// from r (the connection's buffered reader) within readTimeout (no bound
// when <= 0); the answer is written within writeTimeout. A first frame
// that is not a hello, a hello asking for a revision other than
// ProtocolVersion (the error names the revision this build speaks), or
// one naming no known role is answered with an error frame, and that
// error is returned: the caller closes the connection. Otherwise the
// hello is acked with ProtocolVersion and returned, and the caller
// serves its role. A read failure (a timeout included) is returned
// unanswered.
func AcceptHello(nc net.Conn, r io.Reader, readTimeout, writeTimeout time.Duration) (Hello, error) {
	if readTimeout > 0 {
		_ = nc.SetReadDeadline(time.Now().Add(readTimeout))
	}
	env, err := ReadFrame(r)
	if err != nil {
		return Hello{}, err
	}
	_ = nc.SetReadDeadline(time.Time{})
	var hello Hello
	if env.Type != TypeHello {
		err = fmt.Errorf("wire: expected hello, got %s", env.Type)
	} else {
		err = Decode(env, &hello)
	}
	switch {
	case err != nil:
	case hello.Version != ProtocolVersion:
		err = fmt.Errorf("wire: protocol version %d refused: this server speaks only version %d (binary)",
			hello.Version, ProtocolVersion)
	case hello.Role != RoleDevice && hello.Role != RoleCAS && hello.Role != RoleNode:
		err = fmt.Errorf("wire: unknown role %q", hello.Role)
	}
	// Encoding an Error or an Ack cannot fail.
	var reply Envelope
	if err != nil {
		reply, _ = Encode(TypeError, env.Seq, Error{Message: err.Error()})
	} else {
		reply, _ = Encode(TypeAck, env.Seq, Ack{Version: ProtocolVersion})
	}
	_ = nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	werr := WriteFrame(nc, reply)
	_ = nc.SetWriteDeadline(time.Time{})
	if err != nil {
		return Hello{}, err
	}
	return hello, werr
}

// DialHello opens an outbound connection in role: it writes the hello
// asking for ProtocolVersion and reads the answer from r (the
// connection's buffered reader), both within timeout. An error reply
// fails the dial with its message, and so does an ack that does not name
// ProtocolVersion: an older server that speaks only v1 JSON acks without
// one, and there is no fallback to it.
func DialHello(nc net.Conn, r io.Reader, role Role, timeout time.Duration) error {
	_ = nc.SetDeadline(time.Now().Add(timeout))
	env, err := Encode(TypeHello, 0, Hello{Role: role, Version: ProtocolVersion})
	if err != nil {
		return err
	}
	if err := WriteFrame(nc, env); err != nil {
		return fmt.Errorf("wire: hello: %w", err)
	}
	resp, err := ReadFrame(r)
	if err != nil {
		return fmt.Errorf("wire: hello response: %w", err)
	}
	_ = nc.SetDeadline(time.Time{})
	var ack Ack
	switch resp.Type {
	case TypeError:
		var e Error
		_ = Decode(resp, &e)
		return fmt.Errorf("wire: server rejected hello: %s", e.Message)
	case TypeAck:
		if len(resp.Payload) > 0 {
			_ = Decode(resp, &ack)
		}
	default:
		return fmt.Errorf("wire: unexpected hello response %s", resp.Type)
	}
	if ack.Version != ProtocolVersion {
		return fmt.Errorf("wire: server acked the hello without protocol version %d; "+
			"it speaks only the retired v1 JSON protocol", ProtocolVersion)
	}
	return nil
}
