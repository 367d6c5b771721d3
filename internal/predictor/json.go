package predictor

import (
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendJSON appends o to dst as a json.Encoder writes it — the same bytes,
// the trailing newline included — and reports true. It reports false, with
// dst as it was, for an output encoding/json refuses to encode (a time whose
// year is outside 0–9999 or whose zone offset is 24 hours or more), so a
// caller can encode that one with encoding/json and get its error. Reusing
// dst, it allocates nothing.
//
//aarohi:hotpath
func (o Output) AppendJSON(dst []byte) ([]byte, bool) {
	n := len(dst)
	ok := true
	dst = append(dst, `{"Prediction":`...)
	if p := o.Prediction; p == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, `{"Node":`...)
		dst = appendJSONString(dst, p.Node)
		dst = append(dst, `,"ChainIndex":`...)
		dst = strconv.AppendInt(dst, int64(p.ChainIndex), 10)
		dst = append(dst, `,"ChainName":`...)
		dst = appendJSONString(dst, p.ChainName)
		dst = append(dst, `,"FirstAt":`...)
		dst, ok = appendJSONTime(dst, p.FirstAt, ok)
		dst = append(dst, `,"MatchedAt":`...)
		dst, ok = appendJSONTime(dst, p.MatchedAt, ok)
		dst = append(dst, `,"Length":`...)
		dst = strconv.AppendInt(dst, int64(p.Length), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"Failure":`...)
	if f := o.Failure; f == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, `{"Node":`...)
		dst = appendJSONString(dst, f.Node)
		dst = append(dst, `,"Time":`...)
		dst, ok = appendJSONTime(dst, f.Time, ok)
		dst = append(dst, `,"Phrase":`...)
		dst = strconv.AppendInt(dst, int64(f.Phrase), 10)
		dst = append(dst, '}')
	}
	if o.Model != "" {
		dst = append(dst, `,"model":`...)
		dst = appendJSONString(dst, o.Model)
	}
	if !ok {
		return dst[:n], false
	}
	return append(dst, "}\n"...), true
}

// appendJSONTime appends t as Time.MarshalJSON writes it, and reports ok
// false when MarshalJSON would refuse it: its year is not four digits wide,
// or its zone offset's hour is not below 24.
//
//aarohi:hotpath
func appendJSONTime(dst []byte, t time.Time, ok bool) ([]byte, bool) {
	dst = append(dst, '"')
	n := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	switch {
	case dst[n+len("9999")] != '-':
		ok = false
	case dst[len(dst)-1] != 'Z':
		c := dst[len(dst)-len("Z07:00")]
		hh := dst[len(dst)-len("07:00"):]
		if ('0' <= c && c <= '9') || 10*(hh[0]-'0')+(hh[1]-'0') >= 24 {
			ok = false
		}
	}
	return append(dst, '"'), ok
}

// appendJSONString appends s as a quoted JSON string the way encoding/json
// writes it with HTML escaping on (its Encoder's default): '"' and '\\'
// backslashed; \b, \f, \n, \r and \t short; other control bytes and '<', '>'
// and '&' as \u00XX; each invalid UTF-8 byte as \ufffd; and U+2028 and
// U+2029 as \u2028 and \u2029.
//
//aarohi:hotpath
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
