package wire

import (
	"encoding/binary"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"senseaid/internal/faultconn"
)

// These tests are the wire half of the faultconn corruption policy: a
// flipped byte anywhere in the stream must surface as a protocol error
// or a deadline timeout on the reader — never a hang, and never an
// oversized allocation.

// tcpPair returns a connected (client, server) TCP socket pair.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	ch := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(ch)
			return
		}
		ch <- nc
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	srv, ok := <-ch
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { _ = srv.Close() })
	return client, srv
}

// TestCorruptedFrameNeverHangsReader drives many independently seeded
// corrupted frames at both codecs. Whatever byte the corruption hits —
// length prefix, type, seq, payload — the reader must come back within
// its deadline, either with a decode/frame error or (when the mangled
// length promises bytes that never arrive) a read timeout.
func TestCorruptedFrameNeverHangsReader(t *testing.T) {
	for _, codec := range []Codec{jsonV1, Binary} {
		codec := codec
		t.Run(codec.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				client, srv := tcpPair(t)
				fc := faultconn.Wrap(client, faultconn.Policy{Seed: seed, CorruptProb: 1})

				env, err := codec.Encode(TypeStateReport, uint64(seed), StateReport{BatteryPct: 42})
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				if err := codec.WriteFrame(fc, env); err != nil {
					t.Fatalf("seed %d: write corrupted frame: %v", seed, err)
				}

				if err := srv.SetReadDeadline(time.Now().Add(400 * time.Millisecond)); err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				got, err := codec.ReadFrame(srv)
				if elapsed := time.Since(start); elapsed > 2*time.Second {
					t.Fatalf("seed %d: reader wedged %v on corrupted frame", seed, elapsed)
				}
				if err == nil {
					// The flip landed somewhere content-only (e.g. inside a
					// string) and the frame still parsed; it must at least
					// not round-trip as the original.
					var rep StateReport
					if codec.Decode(got, &rep) == nil && got.Type == env.Type &&
						got.Seq == env.Seq && reflect.DeepEqual(rep, StateReport{BatteryPct: 42}) {
						t.Fatalf("seed %d: corrupted frame decoded identical to original", seed)
					}
					continue
				}
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					continue // mangled length → short read → deadline fired
				}
				if !strings.Contains(err.Error(), "wire:") {
					t.Fatalf("seed %d: unexpected error class: %v", seed, err)
				}
			}
		})
	}
}

// TestHostileLengthPrefixRejectedBeforeAllocation feeds each codec a
// length prefix far beyond MaxMessageBytes with no body behind it. The
// guard must reject on the prefix alone — instantly, with no deadline
// needed and no payload buffer allocated.
func TestHostileLengthPrefixRejectedBeforeAllocation(t *testing.T) {
	t.Run("json", func(t *testing.T) {
		client, srv := tcpPair(t)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 0xFFFFFFF0)
		if _, err := client.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := ReadFrame(srv)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "bad frame length") {
				t.Fatalf("hostile length error = %v, want bad frame length", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("ReadFrame blocked on hostile length prefix")
		}
	})
	t.Run("binary", func(t *testing.T) {
		client, srv := tcpPair(t)
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], 1<<40)
		if _, err := client.Write(buf[:n]); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := Binary.ReadFrame(srv)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "bad frame length") {
				t.Fatalf("hostile length error = %v, want bad frame length", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("ReadFrame blocked on hostile varint length")
		}
	})
}

// TestTruncatedFrameTimesOutNotHangs writes a plausible length prefix
// and only half the promised body, then goes silent with the socket
// open — the shape a corrupted length most often takes. The reader's
// deadline, not patience, must end the read.
func TestTruncatedFrameTimesOutNotHangs(t *testing.T) {
	client, srv := tcpPair(t)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 512)
	if _, err := client.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := ReadFrame(srv)
	if err == nil {
		t.Fatal("truncated frame read succeeded")
	}
	if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		// The error is wrapped by ReadFrame; unwrap via the message when
		// the type assertion misses.
		if !strings.Contains(err.Error(), "timeout") && !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("truncated frame error = %v, want deadline timeout", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("truncated frame read took %v, deadline ignored", elapsed)
	}
}
