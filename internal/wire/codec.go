package wire

import (
	"fmt"
	"io"
)

// Codec is one wire framing: how payload structs become bytes and how
// frames are laid out on the stream. After the hello every connection
// speaks the v2 binary payloads, framed by Binary on a connection of its
// own and by Link on a router↔worker link (DESIGN.md §13).
//
// All implementations are stateless and safe for concurrent use.
type Codec interface {
	// Name is the framing's name ("binary", "link").
	Name() string
	// Encode marshals a payload into an envelope.
	Encode(t MsgType, seq uint64, payload interface{}) (Envelope, error)
	// Decode unmarshals an envelope payload into out.
	Decode(env Envelope, out interface{}) error
	// AppendFrame appends one framed envelope to dst and returns the
	// extended slice — the building block write coalescing batches into a
	// single syscall. The frame size is validated before anything is
	// appended, so a failed call leaves dst unchanged.
	AppendFrame(dst []byte, env Envelope) ([]byte, error)
	// WriteFrame writes one framed envelope.
	WriteFrame(w io.Writer, env Envelope) error
	// ReadFrame reads one framed envelope. Oversized length prefixes are
	// rejected before any payload buffer is allocated.
	ReadFrame(r io.Reader) (Envelope, error)
}

// Binary is the v2 framing of a connection of its own.
var Binary Codec = binaryCodec{}

// CodecByName resolves a codec name: "", "binary" and "v2" are Binary,
// the only data-path codec. The name is kept only because command lines
// and callers that predate the single codec still pass one; it goes
// once they no longer do.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "binary", "v2":
		return Binary, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q: binary is the only codec", name)
	}
}
