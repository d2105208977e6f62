package dsl

import (
	"fmt"
	"slices"
	"strconv"

	"tigatest/internal/dbm"
	"tigatest/internal/expr"
	"tigatest/internal/model"
	"tigatest/internal/tctl"
)

// File is a parsed model file: the system plus named quantifier ranges for
// test purposes.
type File struct {
	Sys    *model.System
	Ranges map[string]tctl.Range
}

// ParseEnv returns the tctl parse environment for formulas against this
// file.
func (f *File) ParseEnv() *tctl.ParseEnv {
	return &tctl.ParseEnv{Sys: f.Sys, Ranges: f.Ranges}
}

// Parse reads a model file.
func Parse(src string) (*File, error) {
	p := &parser{toks: lex(src)}
	f, err := p.file()
	if err != nil {
		return nil, fmt.Errorf("dsl: line %d: %w", p.cur().line, err)
	}
	if err := f.Sys.Validate(); err != nil {
		return nil, fmt.Errorf("dsl: %w", err)
	}
	return f, nil
}

// MustParse panics on error (for embedded model literals in tests).
func MustParse(src string) *File {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	toks []token
	pos  int

	file_ *File
	// pending edges are resolved after all locations of a process exist.
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) skipNewlines() {
	for p.cur().kind == tokNewline {
		p.pos++
	}
}

func (p *parser) accept(text string) bool {
	if p.cur().kind != tokEOF && p.cur().kind != tokNewline && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("expected %q, got %s", text, p.cur())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tokIdent {
		return "", fmt.Errorf("expected identifier, got %s", p.cur())
	}
	return p.next().text, nil
}

func (p *parser) number() (int, error) {
	neg := p.accept("-")
	if p.cur().kind != tokNum {
		return 0, fmt.Errorf("expected number, got %s", p.cur())
	}
	v, err := strconv.Atoi(p.next().text)
	if err != nil {
		return 0, err
	}
	if neg {
		v = -v
	}
	return v, nil
}

func (p *parser) endOfDecl() error {
	switch p.cur().kind {
	case tokNewline:
		p.pos++
		return nil
	case tokEOF:
		return nil
	}
	if p.cur().text == "}" {
		return nil // block close terminates the declaration too
	}
	return fmt.Errorf("unexpected %s at end of declaration", p.cur())
}

func (p *parser) file() (*File, error) {
	p.skipNewlines()
	if err := p.expect("system"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.file_ = &File{Sys: model.NewSystem(name), Ranges: map[string]tctl.Range{}}
	if err := p.endOfDecl(); err != nil {
		return nil, err
	}
	for {
		p.skipNewlines()
		t := p.cur()
		if t.kind == tokEOF {
			return p.file_, nil
		}
		if t.kind != tokIdent {
			return nil, fmt.Errorf("expected declaration, got %s", t)
		}
		var err error
		switch t.text {
		case "clock":
			err = p.clockDecl()
		case "int":
			err = p.intDecl()
		case "chan":
			err = p.chanDecl()
		case "range":
			err = p.rangeDecl()
		case "process":
			err = p.processDecl()
		default:
			err = fmt.Errorf("unknown declaration %q", t.text)
		}
		if err != nil {
			return nil, err
		}
	}
}

// clock x, y
func (p *parser) clockDecl() error {
	p.pos++ // clock
	for {
		name, err := p.ident()
		if err != nil {
			return err
		}
		if _, dup := p.clockByName(name); dup {
			return fmt.Errorf("duplicate clock %s", name)
		}
		p.file_.Sys.AddClock(name)
		if !p.accept(",") {
			break
		}
	}
	return p.endOfDecl()
}

// int name = v range lo..hi  |  int name[n] = {a,b} range lo..hi
func (p *parser) intDecl() error {
	p.pos++ // int
	name, err := p.ident()
	if err != nil {
		return err
	}
	d := expr.VarDecl{Name: name, Len: 1}
	if p.accept("[") {
		n, err := p.number()
		if err != nil {
			return err
		}
		d.Len = n
		if err := p.expect("]"); err != nil {
			return err
		}
	}
	if p.accept("=") {
		if p.accept("{") {
			for {
				v, err := p.number()
				if err != nil {
					return err
				}
				d.Init = append(d.Init, v)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect("}"); err != nil {
				return err
			}
		} else {
			v, err := p.number()
			if err != nil {
				return err
			}
			d.Init = []int{v}
		}
	}
	if err := p.expect("range"); err != nil {
		return err
	}
	lo, err := p.number()
	if err != nil {
		return err
	}
	if err := p.expect(".."); err != nil {
		return err
	}
	hi, err := p.number()
	if err != nil {
		return err
	}
	d.Min, d.Max = lo, hi
	if _, err := p.file_.Sys.Vars.Declare(d); err != nil {
		return err
	}
	return p.endOfDecl()
}

// chan a, b : input|output
func (p *parser) chanDecl() error {
	p.pos++ // chan
	var names []string
	for {
		name, err := p.ident()
		if err != nil {
			return err
		}
		if _, dup := p.file_.Sys.ChannelByName(name); dup || slices.Contains(names, name) {
			return fmt.Errorf("duplicate channel %s", name)
		}
		names = append(names, name)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(":"); err != nil {
		return err
	}
	kindName, err := p.ident()
	if err != nil {
		return err
	}
	var kind model.Kind
	switch kindName {
	case "input":
		kind = model.Controllable
	case "output":
		kind = model.Uncontrollable
	default:
		return fmt.Errorf("channel kind must be input or output, got %q", kindName)
	}
	for _, n := range names {
		p.file_.Sys.AddChannel(n, kind)
	}
	return p.endOfDecl()
}

// range Name = lo..hi
func (p *parser) rangeDecl() error {
	p.pos++ // range
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("="); err != nil {
		return err
	}
	lo, err := p.number()
	if err != nil {
		return err
	}
	if err := p.expect(".."); err != nil {
		return err
	}
	hi, err := p.number()
	if err != nil {
		return err
	}
	p.file_.Ranges[name] = tctl.Range{Lo: lo, Hi: hi}
	return p.endOfDecl()
}

// process Name { ... }
func (p *parser) processDecl() error {
	p.pos++ // process
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, dup := p.file_.Sys.ProcByName(name); dup {
		return fmt.Errorf("duplicate process %s", name)
	}
	proc := p.file_.Sys.AddProcess(name)
	if err := p.expect("{"); err != nil {
		return err
	}
	initName := ""
	type pendingEdge struct {
		src, dst string
		edge     model.Edge
		line     int
	}
	var pending []pendingEdge
	for {
		p.skipNewlines()
		t := p.cur()
		if t.text == "}" && t.kind == tokPunct {
			p.pos++
			break
		}
		switch t.text {
		case "init":
			p.pos++
			initName, err = p.ident()
			if err != nil {
				return err
			}
			if err := p.endOfDecl(); err != nil {
				return err
			}
		case "location":
			if err := p.locationDecl(proc); err != nil {
				return err
			}
		case "edge":
			line := t.line
			src, dst, e, err := p.edgeDecl()
			if err != nil {
				return err
			}
			pending = append(pending, pendingEdge{src, dst, e, line})
		default:
			return fmt.Errorf("unexpected %s in process body", t)
		}
	}
	// Resolve edges and the initial location now that all locations exist.
	for _, pe := range pending {
		si, ok := proc.LocByName(pe.src)
		if !ok {
			return fmt.Errorf("line %d: unknown location %q", pe.line, pe.src)
		}
		di, ok := proc.LocByName(pe.dst)
		if !ok {
			return fmt.Errorf("line %d: unknown location %q", pe.line, pe.dst)
		}
		pe.edge.Src, pe.edge.Dst = si, di
		p.file_.Sys.AddEdge(proc, pe.edge)
	}
	if initName != "" {
		li, ok := proc.LocByName(initName)
		if !ok {
			return fmt.Errorf("unknown initial location %q", initName)
		}
		proc.SetInit(li)
	}
	return p.endOfDecl()
}

// location Name [{ inv <clock constraints> | urgent | committed }]
func (p *parser) locationDecl(proc *model.Process) error {
	p.pos++ // location
	name, err := p.ident()
	if err != nil {
		return err
	}
	if _, dup := proc.LocByName(name); dup {
		return fmt.Errorf("duplicate location %s in %s", name, proc.Name)
	}
	loc := model.Location{Name: name}
	if p.accept("{") {
		for {
			p.skipNewlines()
			if p.accept("}") {
				break
			}
			switch {
			case p.accept("urgent"):
				loc.Urgent = true
			case p.accept("committed"):
				loc.Committed = true
			case p.accept("inv"):
				cs, err := p.clockConjunction()
				if err != nil {
					return err
				}
				loc.Invariant = append(loc.Invariant, cs...)
			default:
				return fmt.Errorf("unexpected %s in location body", p.cur())
			}
			p.accept(";")
		}
	}
	proc.AddLocation(loc)
	return p.endOfDecl()
}

// edge Src -> Dst [on chan?|chan!] [tau input|output] [when guard] [do {...}]
func (p *parser) edgeDecl() (src, dst string, e model.Edge, err error) {
	p.pos++ // edge
	if src, err = p.ident(); err != nil {
		return
	}
	if err = p.expect("->"); err != nil {
		return
	}
	if dst, err = p.ident(); err != nil {
		return
	}
	e.Dir = model.NoSync
	e.Chan = -1
	e.Kind = model.Controllable
	for {
		switch {
		case p.accept("on"):
			var ch string
			if ch, err = p.ident(); err != nil {
				return
			}
			idx, ok := p.file_.Sys.ChannelByName(ch)
			if !ok {
				err = fmt.Errorf("unknown channel %q", ch)
				return
			}
			e.Chan = idx
			switch {
			case p.accept("?"):
				e.Dir = model.Receive
			case p.accept("!"):
				e.Dir = model.Emit
			default:
				err = fmt.Errorf("channel %q needs ? or !", ch)
				return
			}
		case p.accept("tau"):
			var kindName string
			if kindName, err = p.ident(); err != nil {
				return
			}
			switch kindName {
			case "input":
				e.Kind = model.Controllable
			case "output":
				e.Kind = model.Uncontrollable
			default:
				err = fmt.Errorf("tau kind must be input or output, got %q", kindName)
				return
			}
		case p.accept("when"):
			if err = p.guard(&e); err != nil {
				return
			}
		case p.accept("do"):
			if err = p.doBlock(&e); err != nil {
				return
			}
		default:
			err = p.endOfDecl()
			return
		}
	}
}

// guard parses `term && term && ...` where each term is either a clock
// comparison or a data predicate.
func (p *parser) guard(e *model.Edge) error {
	for {
		if err := p.guardTerm(e); err != nil {
			return err
		}
		if !p.accept("&&") {
			return nil
		}
	}
}

func (p *parser) guardTerm(e *model.Edge) error {
	// Clock comparison: ident (-ident)? op num, where ident is a clock.
	if p.cur().kind == tokIdent {
		if ci, ok := p.clockByName(p.cur().text); ok {
			p.pos++
			cj := 0
			if p.accept("-") {
				name, err := p.ident()
				if err != nil {
					return err
				}
				var ok2 bool
				cj, ok2 = p.clockByName(name)
				if !ok2 {
					return fmt.Errorf("clock difference needs two clocks, %q is not a clock", name)
				}
			}
			op := p.next().text
			k, err := p.number()
			if err != nil {
				return err
			}
			cs, err := clockComparison(ci, cj, op, k)
			if err != nil {
				return err
			}
			e.Guard.Clocks = append(e.Guard.Clocks, cs...)
			return nil
		}
	}
	// Otherwise a data predicate (comparison over int expressions).
	ex, err := p.dataComparison()
	if err != nil {
		return err
	}
	if e.Guard.Data == nil {
		e.Guard.Data = ex
	} else {
		e.Guard.Data = expr.NewBin(expr.OpAnd, e.Guard.Data, ex)
	}
	return nil
}

func clockComparison(ci, cj int, op string, k int) ([]model.ClockConstraint, error) {
	mk := func(i, j int, b dbm.Bound) model.ClockConstraint {
		return model.ClockConstraint{I: i, J: j, Bound: b}
	}
	switch op {
	case "<":
		return []model.ClockConstraint{mk(ci, cj, dbm.LT(k))}, nil
	case "<=":
		return []model.ClockConstraint{mk(ci, cj, dbm.LE(k))}, nil
	case ">":
		return []model.ClockConstraint{mk(cj, ci, dbm.LT(-k))}, nil
	case ">=":
		return []model.ClockConstraint{mk(cj, ci, dbm.LE(-k))}, nil
	case "==":
		return []model.ClockConstraint{mk(ci, cj, dbm.LE(k)), mk(cj, ci, dbm.LE(-k))}, nil
	}
	return nil, fmt.Errorf("unsupported clock comparison %q", op)
}

// dataComparison parses sum (op sum)?.
func (p *parser) dataComparison() (expr.Expr, error) {
	l, err := p.sum()
	if err != nil {
		return nil, err
	}
	var op expr.Op
	switch p.cur().text {
	case "==":
		op = expr.OpEq
	case "!=":
		op = expr.OpNe
	case "<":
		op = expr.OpLt
	case "<=":
		op = expr.OpLe
	case ">":
		op = expr.OpGt
	case ">=":
		op = expr.OpGe
	default:
		return l, nil
	}
	p.pos++
	r, err := p.sum()
	if err != nil {
		return nil, err
	}
	return expr.NewBin(op, l, r), nil
}

func (p *parser) sum() (expr.Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.OpAdd, l, r)
		case p.accept("-"):
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.OpSub, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) term() (expr.Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.OpMul, l, r)
		case p.accept("/"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.OpDiv, l, r)
		case p.accept("%"):
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.OpMod, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) primary() (expr.Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNum:
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil
	case t.text == "-":
		p.pos++
		e, err := p.primary()
		if err != nil {
			return nil, err
		}
		return expr.NewBin(expr.OpSub, expr.Lit(0), e), nil
	case t.text == "(":
		p.pos++
		e, err := p.dataComparison()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		name, _ := p.ident()
		var idx expr.Expr
		if p.accept("[") {
			var err error
			idx, err = p.sum()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		return expr.NewVar(p.file_.Sys.Vars, name, idx)
	}
	return nil, fmt.Errorf("unexpected %s in expression", t)
}

// doBlock parses { stmt, stmt, ... } mixing clock resets and assignments.
func (p *parser) doBlock(e *model.Edge) error {
	if err := p.expect("{"); err != nil {
		return err
	}
	for {
		p.skipNewlines()
		if p.accept("}") {
			return nil
		}
		name, err := p.ident()
		if err != nil {
			return err
		}
		if ci, ok := p.clockByName(name); ok {
			if err := p.expect(":="); err != nil {
				return err
			}
			v, err := p.number()
			if err != nil {
				return err
			}
			e.Resets = append(e.Resets, model.ClockReset{Clock: ci, Value: v})
		} else {
			var idx expr.Expr
			if p.accept("[") {
				idx, err = p.sum()
				if err != nil {
					return err
				}
				if err := p.expect("]"); err != nil {
					return err
				}
			}
			target, err := expr.NewVar(p.file_.Sys.Vars, name, idx)
			if err != nil {
				return err
			}
			if err := p.expect(":="); err != nil {
				return err
			}
			val, err := p.sum()
			if err != nil {
				return err
			}
			e.Assigns = append(e.Assigns, expr.Assign{Target: target, Value: val})
		}
		p.accept(",")
	}
}

// clockConjunction parses `x<=2 && x-y<5 && ...` (clock constraints only;
// used for invariants).
func (p *parser) clockConjunction() ([]model.ClockConstraint, error) {
	var out []model.ClockConstraint
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci, ok := p.clockByName(name)
		if !ok {
			return nil, fmt.Errorf("invariants must constrain clocks; %q is not a clock", name)
		}
		cj := 0
		if p.accept("-") {
			other, err := p.ident()
			if err != nil {
				return nil, err
			}
			cj, ok = p.clockByName(other)
			if !ok {
				return nil, fmt.Errorf("clock difference needs two clocks, %q is not a clock", other)
			}
		}
		op := p.next().text
		k, err := p.number()
		if err != nil {
			return nil, err
		}
		cs, err := clockComparison(ci, cj, op, k)
		if err != nil {
			return nil, err
		}
		out = append(out, cs...)
		if !p.accept("&&") {
			return out, nil
		}
	}
}

func (p *parser) clockByName(name string) (int, bool) {
	for _, c := range p.file_.Sys.Clocks[1:] {
		if c.Name == name {
			return c.Index, true
		}
	}
	return 0, false
}
