package persist

import "encoding/binary"

// validJSON reports whether b is exactly one JSON value, optionally
// surrounded by whitespace: the verdict encoding/json.Valid gives on
// every input, in one pass and without allocating for nesting up to 32
// levels deep. Like encoding/json it refuses nesting deeper than 10 000
// containers, does not check what a \u escape names (a lone surrogate is
// valid) and accepts any byte at or above 0x20 inside a string, invalid
// UTF-8 included. FuzzValidJSON holds it to encoding/json.Valid.
func validJSON(b []byte) bool {
	var openBuf [32]byte
	open := openBuf[:0] // the containers around the next value: '{' or '['
	i := 0
	for {
		// A value starts at the next non-space byte.
		i = skipSpace(b, i)
		if i >= len(b) {
			return false
		}
		switch c := b[i]; c {
		case '{', '[':
			if len(open) == maxNestingDepth {
				return false
			}
			i = skipSpace(b, i+1)
			if i < len(b) && b[i] == c+2 { // '}' and ']' follow their openers by 2
				i++
				break
			}
			open = append(open, c)
			if c == '{' {
				i = objectKey(b, i)
			}
			if i < 0 {
				return false
			}
			continue
		case '"':
			i = stringEnd(b, i+1)
		case 't':
			i = literalEnd(b, i, "true")
		case 'f':
			i = literalEnd(b, i, "false")
		case 'n':
			i = literalEnd(b, i, "null")
		default:
			i = numberEnd(b, i)
		}
		if i < 0 {
			return false
		}
		// The value is complete: close every container it completes, then
		// step over the comma (and, in an object, the key) before the next.
		for {
			i = skipSpace(b, i)
			if len(open) == 0 {
				return i == len(b)
			}
			if i >= len(b) {
				return false
			}
			top := open[len(open)-1]
			if b[i] == top+2 {
				open = open[:len(open)-1]
				i++
				continue
			}
			if b[i] != ',' {
				return false
			}
			i++
			if top == '{' {
				if i = objectKey(b, skipSpace(b, i)); i < 0 {
					return false
				}
			}
			break
		}
	}
}

// maxNestingDepth is encoding/json's limit on open containers.
const maxNestingDepth = 10000

// jsonPlain marks the bytes a string may hold as they stand: everything
// but the quote, the backslash and the control characters below 0x20.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// objectKey reads a member's key and its colon from i; it returns the
// index after the colon, or -1.
func objectKey(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	if i = stringEnd(b, i+1); i < 0 {
		return -1
	}
	if i = skipSpace(b, i); i >= len(b) || b[i] != ':' {
		return -1
	}
	return i + 1
}

// stringEnd returns the index after the closing quote of the string
// whose body starts at i, or -1.
func stringEnd(b []byte, i int) int {
	for {
		// Eight plain bytes at a time, then one at a time up to the first
		// that is not.
		for i+8 <= len(b) && !hasSpecial(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		for i < len(b) && jsonPlain[b[i]] {
			i++
		}
		switch {
		case i >= len(b):
			return -1
		case b[i] == '"':
			return i + 1
		case b[i] != '\\' || i+1 >= len(b):
			return -1
		}
		switch b[i+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i += 2
		case 'u':
			if i+6 > len(b) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) || !isHex(b[i+5]) {
				return -1
			}
			i += 6
		default:
			return -1
		}
	}
}

// hasSpecial reports whether any of the eight bytes in w is a control
// character, a quote or a backslash (the classic SWAR zero-byte test: a
// byte's high bit survives (x-1)&^x only where x was 0).
func hasSpecial(w uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quote, backslash := w^(ones*'"'), w^(ones*'\\')
	return ((w-ones*0x20)&^w|(quote-ones)&^quote|(backslash-ones)&^backslash)&highs != 0
}

// numberEnd returns the index after the number starting at i, or -1.
func numberEnd(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return -1
		}
		i = digitsEnd(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return -1
		}
		i = digitsEnd(b, i+1)
	}
	return i
}

func literalEnd(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
