package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// A link multiplexes many sessions over one router↔worker connection.
// A link frame is a stream id followed by one ordinary v2 binary frame:
//
//	uvarint streamID | v2 binary frame (uvarint bodyLen | type | seq | enc | payload)
//
// The worker dials the link and enrolls on it. Stream 0 is control: the
// worker's node_hello, then the router's requests (node_ping, promote)
// and their replies. A binary hello on a stream id the worker has not
// seen opens that stream with the hello's role; stream_close ends a
// stream from either side. The router assigns ids in increasing order
// from 1 and never reuses one. Anything a link frame cannot parse is a
// fault of the whole link, which is then closed.

// Link is the codec of a router↔worker link: binary payloads, link
// framing. Envelopes carry their stream id (Envelope.Stream, OnStream);
// an envelope bound to no stream travels on stream 0.
var Link Codec = linkCodec{}

type linkCodec struct{}

func (linkCodec) Name() string { return "link" }

func (linkCodec) Encode(t MsgType, seq uint64, payload interface{}) (Envelope, error) {
	return Binary.Encode(t, seq, payload)
}

func (linkCodec) Decode(env Envelope, out interface{}) error {
	return Decode(env, out)
}

func (linkCodec) AppendFrame(dst []byte, env Envelope) ([]byte, error) {
	out, err := Binary.AppendFrame(binary.AppendUvarint(dst, env.stream), env)
	if err != nil {
		return dst, err
	}
	return out, nil
}

func (c linkCodec) WriteFrame(w io.Writer, env Envelope) error {
	frame, err := c.AppendFrame(nil, env)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		met.errIO.Inc()
		return fmt.Errorf("wire: write frame: %w", err)
	}
	met.bytesTx.Add(uint64(len(frame)))
	return nil
}

func (linkCodec) ReadFrame(r io.Reader) (Envelope, error) {
	id, n, err := readUvarintBounded(r)
	if err != nil {
		return Envelope{}, err // io.EOF passes through for clean shutdown
	}
	env, err := Binary.ReadFrame(r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("wire: link frame truncated after its stream id: %w", io.ErrUnexpectedEOF)
		}
		return Envelope{}, err
	}
	met.bytesRx.Add(uint64(n))
	env.stream = id
	return env, nil
}

// LinkFrameBuffered reports whether r already holds one whole link
// frame, so a reader draining a link can tell whether its next ReadFrame
// would block. A malformed prefix counts as buffered: reading it fails
// at once.
func LinkFrameBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n == 0 {
		return false
	}
	if n > 2*binary.MaxVarintLen64 {
		n = 2 * binary.MaxVarintLen64
	}
	b, _ := r.Peek(n)
	_, a := binary.Uvarint(b)
	if a <= 0 {
		return a < 0 || len(b) >= binary.MaxVarintLen64
	}
	body, c := binary.Uvarint(b[a:])
	if c <= 0 {
		return c < 0 || len(b)-a >= binary.MaxVarintLen64
	}
	return uint64(r.Buffered()) >= uint64(a+c)+body
}
