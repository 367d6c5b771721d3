// Package rex implements the small regular-expression engine underlying the
// Aarohi scanner generator. It is the reproduction's substitute for the
// lexical-analysis core of flex: patterns are parsed into an AST, compiled to
// a Thompson NFA, and determinized into a DFA over byte classes. Multiple
// patterns can be combined into a single prioritized DFA (a Set), which is
// how the generated scanner recognizes every phrase template of the failure
// chains in one pass over each log message.
//
// Supported syntax: literal bytes, '.', postfix '*', '+', '?', alternation
// '|', grouping '(...)', character classes '[...]' (with ranges and '^'
// negation), and the escapes \d \w \s \D \W \S plus \x for any literal x.
// Matching is byte-oriented and anchored at the start of the input.
package rex

import (
	"fmt"
	"strings"
)

// nodeKind enumerates AST node kinds.
type nodeKind uint8

const (
	opEmpty  nodeKind = iota // matches the empty string
	opClass                  // matches one byte from a class
	opConcat                 // subs in sequence
	opAlt                    // one of subs
	opStar                   // zero or more of sub
	opPlus                   // one or more of sub
	opQuest                  // zero or one of sub
)

// node is a regular-expression AST node.
type node struct {
	kind nodeKind
	cls  class
	subs []*node
}

// class is a 256-bit set of byte values.
type class [4]uint64

func (c *class) add(b byte)      { c[b>>6] |= 1 << (b & 63) }
func (c *class) has(b byte) bool { return c[b>>6]&(1<<(b&63)) != 0 }
func (c *class) addRange(lo, hi byte) {
	for b := int(lo); b <= int(hi); b++ {
		c.add(byte(b))
	}
}
func (c *class) negate() {
	for i := range c {
		c[i] = ^c[i]
	}
}
func (c *class) union(o class) {
	for i := range c {
		c[i] |= o[i]
	}
}

// singleClass returns a class containing exactly b.
func singleClass(b byte) class {
	var c class
	c.add(b)
	return c
}

// anyClass matches any byte except newline, mirroring '.' in most engines.
func anyClass() class {
	var c class
	c.negate()
	c[byte('\n')>>6] &^= 1 << ('\n' & 63)
	return c
}

// A ParseError reports a syntax error in a pattern.
type ParseError struct {
	Pattern string
	Pos     int
	Msg     string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rex: parsing %q at %d: %s", e.Pattern, e.Pos, e.Msg)
}

type parser struct {
	pattern string
	pos     int
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pattern: p.pattern, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool  { return p.pos >= len(p.pattern) }
func (p *parser) peek() byte { return p.pattern[p.pos] }
func (p *parser) advance() byte {
	b := p.pattern[p.pos]
	p.pos++
	return b
}

// parsePattern parses a full pattern into an AST.
func parsePattern(pattern string) (*node, error) {
	p := &parser{pattern: pattern}
	n, err := p.alt()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, p.errorf("unexpected %q", p.peek())
	}
	return n, nil
}

func (p *parser) alt() (*node, error) {
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	subs := []*node{first}
	for !p.eof() && p.peek() == '|' {
		p.advance()
		n, err := p.concat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, n)
	}
	if len(subs) == 1 {
		return first, nil
	}
	return &node{kind: opAlt, subs: subs}, nil
}

func (p *parser) concat() (*node, error) {
	var subs []*node
	for !p.eof() && p.peek() != '|' && p.peek() != ')' {
		n, err := p.repeat()
		if err != nil {
			return nil, err
		}
		subs = append(subs, n)
	}
	switch len(subs) {
	case 0:
		return &node{kind: opEmpty}, nil
	case 1:
		return subs[0], nil
	}
	return &node{kind: opConcat, subs: subs}, nil
}

func (p *parser) repeat() (*node, error) {
	n, err := p.atom()
	if err != nil {
		return nil, err
	}
	for !p.eof() {
		var kind nodeKind
		switch p.peek() {
		case '*':
			kind = opStar
		case '+':
			kind = opPlus
		case '?':
			kind = opQuest
		case '{':
			p.advance()
			rep, err := p.repetition(n)
			if err != nil {
				return nil, err
			}
			n = rep
			continue
		default:
			return n, nil
		}
		p.advance()
		n = &node{kind: kind, subs: []*node{n}}
	}
	return n, nil
}

// maxRepeat bounds {m,n} expansion so pathological counts cannot blow up
// the NFA.
const maxRepeat = 64

// repetition parses a bounded quantifier after '{' and expands it: {m}
// exactly m, {m,} at least m, {m,n} between m and n. Expansion shares the
// operand subtree — the NFA builder treats AST nodes as immutable.
func (p *parser) repetition(operand *node) (*node, error) {
	m, ok := p.number()
	if !ok {
		return nil, p.errorf("missing count in {}")
	}
	unbounded := false
	n := m
	if !p.eof() && p.peek() == ',' {
		p.advance()
		if v, ok := p.number(); ok {
			n = v
		} else {
			unbounded = true
		}
	}
	if p.eof() || p.peek() != '}' {
		return nil, p.errorf("missing }")
	}
	p.advance()
	if n < m {
		return nil, p.errorf("invalid repetition {%d,%d}", m, n)
	}
	if m > maxRepeat || n > maxRepeat {
		return nil, p.errorf("repetition bound exceeds %d", maxRepeat)
	}
	var subs []*node
	for i := 0; i < m; i++ {
		subs = append(subs, operand)
	}
	if unbounded {
		subs = append(subs, &node{kind: opStar, subs: []*node{operand}})
	} else {
		for i := m; i < n; i++ {
			subs = append(subs, &node{kind: opQuest, subs: []*node{operand}})
		}
	}
	switch len(subs) {
	case 0:
		return &node{kind: opEmpty}, nil
	case 1:
		return subs[0], nil
	}
	return &node{kind: opConcat, subs: subs}, nil
}

// number parses a decimal integer, reporting ok=false when none is present.
func (p *parser) number() (int, bool) {
	v, seen := 0, false
	for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
		v = v*10 + int(p.advance()-'0')
		seen = true
		if v > 1<<20 {
			return v, true // bound check happens in repetition
		}
	}
	return v, seen
}

func (p *parser) atom() (*node, error) {
	switch b := p.advance(); b {
	case '(':
		n, err := p.alt()
		if err != nil {
			return nil, err
		}
		if p.eof() || p.peek() != ')' {
			return nil, p.errorf("missing )")
		}
		p.advance()
		return n, nil
	case '[':
		return p.charClass()
	case '.':
		return &node{kind: opClass, cls: anyClass()}, nil
	case '*', '+', '?':
		p.pos--
		return nil, p.errorf("missing operand for %q", b)
	case '\\':
		return p.escape()
	default:
		return &node{kind: opClass, cls: singleClass(b)}, nil
	}
}

// namedClass returns the class for a \x escape letter, or ok=false when the
// escape is a plain literal.
func namedClass(b byte) (class, bool) {
	var c class
	switch b {
	case 'd':
		c.addRange('0', '9')
	case 'w':
		c.addRange('0', '9')
		c.addRange('a', 'z')
		c.addRange('A', 'Z')
		c.add('_')
	case 's':
		for _, s := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
			c.add(s)
		}
	case 'D', 'W', 'S':
		c, _ = namedClass(b + 'a' - 'A')
		c.negate()
	default:
		return c, false
	}
	return c, true
}

func (p *parser) escape() (*node, error) {
	if p.eof() {
		return nil, p.errorf("trailing backslash")
	}
	b := p.advance()
	if c, ok := namedClass(b); ok {
		return &node{kind: opClass, cls: c}, nil
	}
	switch b {
	case 'n':
		return &node{kind: opClass, cls: singleClass('\n')}, nil
	case 't':
		return &node{kind: opClass, cls: singleClass('\t')}, nil
	case 'r':
		return &node{kind: opClass, cls: singleClass('\r')}, nil
	}
	return &node{kind: opClass, cls: singleClass(b)}, nil
}

func (p *parser) charClass() (*node, error) {
	var c class
	negated := false
	if !p.eof() && p.peek() == '^' {
		negated = true
		p.advance()
	}
	first := true
	for {
		if p.eof() {
			return nil, p.errorf("missing ]")
		}
		b := p.advance()
		if b == ']' && !first {
			break
		}
		first = false
		if b == '\\' {
			if p.eof() {
				return nil, p.errorf("trailing backslash in class")
			}
			e := p.advance()
			if nc, ok := namedClass(e); ok {
				c.union(nc)
				continue
			}
			switch e {
			case 'n':
				b = '\n'
			case 't':
				b = '\t'
			case 'r':
				b = '\r'
			default:
				b = e
			}
		}
		// Range?
		if !p.eof() && p.peek() == '-' && p.pos+1 < len(p.pattern) && p.pattern[p.pos+1] != ']' {
			p.advance() // '-'
			hi := p.advance()
			if hi == '\\' {
				if p.eof() {
					return nil, p.errorf("trailing backslash in class")
				}
				hi = p.advance()
			}
			if hi < b {
				return nil, p.errorf("invalid range %c-%c", b, hi)
			}
			c.addRange(b, hi)
			continue
		}
		c.add(b)
	}
	if negated {
		c.negate()
	}
	return &node{kind: opClass, cls: c}, nil
}

// QuoteMeta escapes all rex metacharacters in s so it matches literally.
func QuoteMeta(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', ')', '[', ']', '{', '}', '*', '+', '?', '|', '.', '\\':
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}
