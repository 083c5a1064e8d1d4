package p4c

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// Parse compiles mini-language source into a built ir.Program, failing on
// the first of its ir.Problems.
func Parse(src string) (*ir.Program, error) {
	return parse(src, (*ir.Program).Build)
}

// ParseUnvalidated compiles source like Parse but builds it with
// BuildUnvalidated, so the analysis verifier can report every problem in a
// malformed program as a structured diagnostic instead of failing at
// Build's first error. The result must not be executed.
func ParseUnvalidated(src string) (*ir.Program, error) {
	return parse(src, (*ir.Program).BuildUnvalidated)
}

func parse(src string, build func(*ir.Program) (*ir.Program, error)) (*ir.Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input after program")
	}
	return build(prog)
}

// MustParse is Parse that panics on error (for static program text).
func MustParse(src string) *ir.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(m int) { p.pos = m }

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.peek()
	return fmt.Errorf("p4c: line %d:%d: %s (at %s)", t.line, t.col, fmt.Sprintf(format, args...), t)
}

func (p *parser) expect(text string) error {
	if p.peek().text != text || p.peek().kind == tokEOF {
		return p.errf("expected %q", text)
	}
	p.next()
	return nil
}

func (p *parser) accept(text string) bool {
	if p.peek().kind != tokEOF && p.peek().text == text {
		p.next()
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	if p.peek().kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	return p.next().text, nil
}

func (p *parser) number() (uint64, error) {
	if p.peek().kind != tokNumber {
		return 0, p.errf("expected number")
	}
	t := p.next()
	v, err := strconv.ParseUint(t.text, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("p4c: line %d: bad number %q", t.line, t.text)
	}
	return v, nil
}

// ---- program structure ----

func (p *parser) parseProgram() (*ir.Program, error) {
	if err := p.expect("program"); err != nil {
		return nil, err
	}
	// Program names may be quoted (they can contain '-', '.', '*').
	var name string
	if p.peek().kind == tokString {
		name = p.next().text
	} else {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		name = n
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	prog := &ir.Program{Name: name}
	var extraFields []ir.Field
	for {
		switch p.peek().text {
		case "field":
			p.next()
			f, err := p.parseField()
			if err != nil {
				return nil, err
			}
			extraFields = append(extraFields, f)
		case "register":
			p.next()
			r, err := p.parseRegister()
			if err != nil {
				return nil, err
			}
			prog.Regs = append(prog.Regs, r)
		case "register_array":
			p.next()
			a, err := p.parseRegArray()
			if err != nil {
				return nil, err
			}
			prog.RegArrays = append(prog.RegArrays, a)
		case "hash_table":
			p.next()
			h, err := p.parseHashTable()
			if err != nil {
				return nil, err
			}
			prog.HashTables = append(prog.HashTables, h)
		case "bloom":
			p.next()
			bl, err := p.parseBloom()
			if err != nil {
				return nil, err
			}
			prog.Blooms = append(prog.Blooms, bl)
		case "sketch":
			p.next()
			sk, err := p.parseSketch()
			if err != nil {
				return nil, err
			}
			prog.Sketches = append(prog.Sketches, sk)
		case "policy":
			p.next()
			pol, err := p.parsePolicy()
			if err != nil {
				return nil, err
			}
			if prog.Policy == nil {
				prog.Policy = pol
			} else {
				prog.Policy.Merge(pol)
			}
		case "table":
			p.next()
			t, err := p.parseTable()
			if err != nil {
				return nil, err
			}
			prog.Tables = append(prog.Tables, t)
		case "apply":
			p.next()
			if err := p.expect("{"); err != nil {
				return nil, err
			}
			stmts, err := p.parseStmtsUntil("}")
			if err != nil {
				return nil, err
			}
			prog.Root = ir.Body(stmts...)
			if err := p.expect("}"); err != nil { // apply's closing brace
				return nil, err
			}
			if err := p.expect("}"); err != nil { // program's closing brace
				return nil, err
			}
			if len(extraFields) > 0 {
				prog.Fields = append(append([]ir.Field(nil), ir.StdFields...), extraFields...)
			}
			return prog, nil
		default:
			return nil, p.errf("expected a declaration or apply block")
		}
	}
}

// parsePolicy reads an information-flow policy block:
//
//	policy {
//	  secret field src_ip;
//	  secret register syn_cnt;
//	  sink action digest;
//	  sink sketch flow_cnt;
//	}
//
// Kinds are checked here (secrets cannot be actions; sinks cannot be
// fields or metadata); whether the named object exists is the analysis
// verifier's job, so a lenient parse can still report every problem.
func (p *parser) parsePolicy() (*ir.SecPolicy, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	pol := &ir.SecPolicy{}
	for !p.accept("}") {
		var secret bool
		switch {
		case p.accept("secret"):
			secret = true
		case p.accept("sink"):
			secret = false
		default:
			return nil, p.errf("expected 'secret' or 'sink' in policy")
		}
		kind, err := p.ident()
		if err != nil {
			return nil, err
		}
		if secret && !ir.ValidSecretKind(kind) {
			return nil, p.errf("invalid secret kind %q", kind)
		}
		if !secret && !ir.ValidSinkKind(kind) {
			return nil, p.errf("invalid sink kind %q", kind)
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if kind == ir.KindAction {
			if _, ok := ir.ActionKindByName(name); !ok {
				return nil, p.errf("unknown action %q in policy", name)
			}
		}
		ref := ir.SecRef{Kind: kind, Name: name}
		if secret {
			pol.Secrets = append(pol.Secrets, ref)
		} else {
			pol.Sinks = append(pol.Sinks, ref)
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	return pol, nil
}

func (p *parser) parseField() (ir.Field, error) {
	name, err := p.ident()
	if err != nil {
		return ir.Field{}, err
	}
	if err := p.expect(":"); err != nil {
		return ir.Field{}, err
	}
	bits, err := p.number()
	if err != nil {
		return ir.Field{}, err
	}
	return ir.Field{Name: name, Bits: int(bits)}, p.expect(";")
}

func (p *parser) parseRegister() (ir.RegDecl, error) {
	name, err := p.ident()
	if err != nil {
		return ir.RegDecl{}, err
	}
	if err := p.expect(":"); err != nil {
		return ir.RegDecl{}, err
	}
	bits, err := p.number()
	if err != nil {
		return ir.RegDecl{}, err
	}
	r := ir.RegDecl{Name: name, Bits: int(bits)}
	if p.accept("=") {
		init, err := p.number()
		if err != nil {
			return ir.RegDecl{}, err
		}
		r.Init = init
	}
	return r, p.expect(";")
}

func (p *parser) parseRegArray() (ir.RegArrayDecl, error) {
	name, err := p.ident()
	if err != nil {
		return ir.RegArrayDecl{}, err
	}
	if err := p.expect("["); err != nil {
		return ir.RegArrayDecl{}, err
	}
	size, err := p.number()
	if err != nil {
		return ir.RegArrayDecl{}, err
	}
	if err := p.expect("]"); err != nil {
		return ir.RegArrayDecl{}, err
	}
	if err := p.expect(":"); err != nil {
		return ir.RegArrayDecl{}, err
	}
	bits, err := p.number()
	if err != nil {
		return ir.RegArrayDecl{}, err
	}
	return ir.RegArrayDecl{Name: name, Size: int(size), Bits: int(bits)}, p.expect(";")
}

func (p *parser) parseHashTable() (ir.HashTableDecl, error) {
	name, err := p.ident()
	if err != nil {
		return ir.HashTableDecl{}, err
	}
	if err := p.expect("["); err != nil {
		return ir.HashTableDecl{}, err
	}
	size, err := p.number()
	if err != nil {
		return ir.HashTableDecl{}, err
	}
	if err := p.expect("]"); err != nil {
		return ir.HashTableDecl{}, err
	}
	h := ir.HashTableDecl{Name: name, Size: int(size)}
	if p.accept("seed") {
		seed, err := p.number()
		if err != nil {
			return ir.HashTableDecl{}, err
		}
		h.Seed = uint32(seed)
	}
	return h, p.expect(";")
}

func (p *parser) parseBloom() (ir.BloomDecl, error) {
	name, err := p.ident()
	if err != nil {
		return ir.BloomDecl{}, err
	}
	if err := p.expect("["); err != nil {
		return ir.BloomDecl{}, err
	}
	bits, err := p.number()
	if err != nil {
		return ir.BloomDecl{}, err
	}
	if err := p.expect("]"); err != nil {
		return ir.BloomDecl{}, err
	}
	b := ir.BloomDecl{Name: name, Bits: int(bits), Hashes: 3}
	if p.accept("hashes") {
		h, err := p.number()
		if err != nil {
			return ir.BloomDecl{}, err
		}
		b.Hashes = int(h)
	}
	return b, p.expect(";")
}

func (p *parser) parseSketch() (ir.SketchDecl, error) {
	name, err := p.ident()
	if err != nil {
		return ir.SketchDecl{}, err
	}
	if err := p.expect("["); err != nil {
		return ir.SketchDecl{}, err
	}
	// RxC renders as "3x1024" which lexes as one identifier or number+ident;
	// accept both "R x C" tokens and the fused "RxC" form.
	var rows, cols uint64
	if p.peek().kind == tokNumber {
		r, err := p.number()
		if err != nil {
			return ir.SketchDecl{}, err
		}
		rows = r
		// fused "x1024" or separate "x" "1024"
		if p.peek().kind == tokIdent && strings.HasPrefix(p.peek().text, "x") {
			rest := p.next().text[1:]
			c, err := strconv.ParseUint(rest, 0, 64)
			if err != nil {
				return ir.SketchDecl{}, p.errf("bad sketch shape")
			}
			cols = c
		} else {
			return ir.SketchDecl{}, p.errf("expected RxC sketch shape")
		}
	} else {
		return ir.SketchDecl{}, p.errf("expected RxC sketch shape")
	}
	if err := p.expect("]"); err != nil {
		return ir.SketchDecl{}, err
	}
	return ir.SketchDecl{Name: name, Rows: int(rows), Cols: int(cols)}, p.expect(";")
}

func (p *parser) parseTable() (ir.TableDecl, error) {
	name, err := p.ident()
	if err != nil {
		return ir.TableDecl{}, err
	}
	t := ir.TableDecl{Name: name}
	if err := p.expect("("); err != nil {
		return t, err
	}
	for !p.accept(")") {
		k, err := p.parseExpr()
		if err != nil {
			return t, err
		}
		t.Keys = append(t.Keys, k)
		if !p.accept(",") && p.peek().text != ")" {
			return t, p.errf("expected ',' or ')' in table keys")
		}
	}
	if p.accept("disjoint") {
		t.Disjoint = true
	}
	if err := p.expect("{"); err != nil {
		return t, err
	}
	for !p.accept("}") {
		switch {
		case p.accept("entry"):
			if err := p.expect("("); err != nil {
				return t, err
			}
			var specs []ir.MatchSpec
			for !p.accept(")") {
				spec, err := p.parseMatchSpec()
				if err != nil {
					return t, err
				}
				specs = append(specs, spec)
				if !p.accept(",") && p.peek().text != ")" {
					return t, p.errf("expected ',' or ')' in entry")
				}
			}
			if err := p.expect("->"); err != nil {
				return t, err
			}
			action, err := p.parseStmt()
			if err != nil {
				return t, err
			}
			t.Entries = append(t.Entries, ir.Entry{Match: specs, Action: action})
		case p.accept("default"):
			if err := p.expect("->"); err != nil {
				return t, err
			}
			def, err := p.parseStmt()
			if err != nil {
				return t, err
			}
			t.Default = def
		default:
			return t, p.errf("expected entry/default in table")
		}
	}
	return t, nil
}

func (p *parser) parseMatchSpec() (ir.MatchSpec, error) {
	if p.accept("*") {
		return ir.Wild(), nil
	}
	lo, err := p.number()
	if err != nil {
		return ir.MatchSpec{}, err
	}
	if p.accept("..") {
		hi, err := p.number()
		if err != nil {
			return ir.MatchSpec{}, err
		}
		return ir.Range(lo, hi), nil
	}
	return ir.Exact(lo), nil
}
