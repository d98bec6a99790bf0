package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Poolsafe guards the packet-pool lifetime contract (DESIGN.md,
// "Performance"): once a *netsim.Packet is handed to ReleasePacket its
// memory may be zeroed and handed to the next NewPacket caller, so any
// later read or write through the same variable is a use-after-release
// — it corrupts an unrelated in-flight packet, and the symptom (a wrong
// header field several simulated microseconds later) is about as far
// from the cause as bugs get.
//
// Two checks, both intra-procedural and alias-unaware by design:
//
//  1. use-after-release: within one function, a variable passed to a
//     releasing sink (Port.ReleasePacket — any netsim function or
//     method named ReleasePacket) must not be used again on the same
//     straight-line path. Releases inside a
//     conditional branch do not poison code after the branch
//     (conservative: no false positives from "released on one arm").
//     Reassigning the variable (p = net.NewPacket()) clears its
//     released state.
//
//  2. retention: outside package netsim itself (whose queues ARE the
//     ownership mechanism), storing a *netsim.Packet into a struct
//     field, slice/map element, or composite literal is flagged —
//     pooled packets are owned by exactly one queue or in-flight event,
//     and a transport that squirrels one away will read recycled
//     memory. Deliberate ownership transfer gets a
//     //tfcvet:allow poolsafe directive with its justification.
var Poolsafe = &Analyzer{
	Name: "poolsafe",
	Doc:  "flag use-after-release and out-of-band retention of pooled *netsim.Packet values",
	Run:  runPoolsafe,
}

// packetPkgPath is the package that owns the pooled packet type.
const packetPkgPath = "tfcsim/internal/netsim"

// isPacketPtr reports whether t is *netsim.Packet.
func isPacketPtr(t types.Type) bool {
	ptr, isPtr := t.(*types.Pointer)
	if !isPtr {
		return false
	}
	named, isNamed := ptr.Elem().(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Packet" && obj.Pkg() != nil && obj.Pkg().Path() == packetPkgPath
}

func runPoolsafe(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			poolsafeStmts(pass, body.List, make(map[*types.Var]token.Position))
			if pass.Pkg.Path() != packetPkgPath {
				poolsafeRetention(pass, body)
			}
			return true
		})
	}
	return nil
}

// poolsafeStmts walks a statement list in order, tracking which packet
// variables have been released. Branch bodies get a copy of the state:
// their releases do not escape the branch, but uses inside them of
// already-released variables are still caught.
func poolsafeStmts(pass *Pass, stmts []ast.Stmt, released map[*types.Var]token.Position) {
	for _, s := range stmts {
		poolsafeStmt(pass, s, released)
	}
}

func poolsafeStmt(pass *Pass, s ast.Stmt, released map[*types.Var]token.Position) {
	// Any use of an already-released variable anywhere in this
	// statement (branches included) is a finding.
	reportReleasedUses(pass, s, released)

	switch st := s.(type) {
	case *ast.BlockStmt:
		poolsafeStmts(pass, st.List, released)
	case *ast.LabeledStmt:
		poolsafeStmt(pass, st.Stmt, released)
	case *ast.IfStmt:
		branch := copyReleased(released)
		if st.Init != nil {
			poolsafeStmt(pass, st.Init, branch)
		}
		poolsafeStmts(pass, st.Body.List, branch)
		if st.Else != nil {
			poolsafeStmt(pass, st.Else, copyReleased(released))
		}
	case *ast.ForStmt:
		poolsafeStmts(pass, st.Body.List, copyReleased(released))
	case *ast.RangeStmt:
		poolsafeStmts(pass, st.Body.List, copyReleased(released))
	case *ast.SwitchStmt:
		for _, clause := range st.Body.List {
			if cc, isCase := clause.(*ast.CaseClause); isCase {
				poolsafeStmts(pass, cc.Body, copyReleased(released))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range st.Body.List {
			if cc, isCase := clause.(*ast.CaseClause); isCase {
				poolsafeStmts(pass, cc.Body, copyReleased(released))
			}
		}
	case *ast.SelectStmt:
		for _, clause := range st.Body.List {
			if cc, isComm := clause.(*ast.CommClause); isComm {
				poolsafeStmts(pass, cc.Body, copyReleased(released))
			}
		}
	case *ast.ExprStmt:
		// A straight-line release poisons the variable for the rest of
		// this block.
		for _, v := range releasedVars(pass, st.X) {
			released[v] = pass.Fset.Position(st.X.Pos())
		}
	case *ast.AssignStmt:
		// p = <fresh value> resurrects p.
		for i, lhs := range st.Lhs {
			id, isIdent := lhs.(*ast.Ident)
			if !isIdent {
				continue
			}
			v, isVar := pass.TypesInfo.Uses[id].(*types.Var)
			if !isVar {
				continue
			}
			if _, wasReleased := released[v]; wasReleased && i < len(st.Rhs) {
				delete(released, v)
			}
		}
	}
}

// reportReleasedUses flags reads/writes of released variables within s.
// It does not descend into nested function literals (a closure may run
// before the release ever happens). A plain identifier on the left of
// an assignment is a rebind, not a use, and is skipped.
func reportReleasedUses(pass *Pass, s ast.Stmt, released map[*types.Var]token.Position) {
	if len(released) == 0 {
		return
	}
	rebinds := make(map[*ast.Ident]bool)
	shallowInspect(s, func(n ast.Node) {
		if asg, isAssign := n.(*ast.AssignStmt); isAssign {
			for _, lhs := range asg.Lhs {
				if id := identOf(lhs); id != nil {
					rebinds[id] = true
				}
			}
		}
	})
	shallowInspect(s, func(n ast.Node) {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || rebinds[id] {
			return
		}
		v, isVar := pass.TypesInfo.Uses[id].(*types.Var)
		if !isVar {
			return
		}
		if at, wasReleased := released[v]; wasReleased {
			pass.Reportf(id.Pos(),
				"%s is used after being passed to ReleasePacket at line %d; a released packet may already be recycled by another NewPacket caller",
				id.Name, at.Line)
		}
	})
}

// releasedVars returns the packet variables that expr hands to a
// releasing sink.
func releasedVars(pass *Pass, expr ast.Expr) []*types.Var {
	var vars []*types.Var
	shallowInspect(expr, func(n ast.Node) {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || !isReleaseCall(pass, call) {
			return
		}
		for _, arg := range call.Args {
			id, isIdent := ast.Unparen(arg).(*ast.Ident)
			if !isIdent {
				continue
			}
			if v, isVar := pass.TypesInfo.Uses[id].(*types.Var); isVar && isPacketPtr(v.Type()) {
				vars = append(vars, v)
			}
		}
	})
	return vars
}

// isReleaseCall reports whether call invokes a releasing sink: a
// function or method named ReleasePacket defined in package netsim.
func isReleaseCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	return fn != nil && fn.Name() == "ReleasePacket" &&
		fn.Pkg() != nil && fn.Pkg().Path() == packetPkgPath
}

// poolsafeRetention flags packet pointers stored where they outlive the
// statement: struct fields, slice/map elements, composite literals, and
// append calls.
func poolsafeRetention(pass *Pass, body *ast.BlockStmt) {
	shallowInspect(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				break // tuple assignment from a call: no direct packet expr
			}
			for i, lhs := range st.Lhs {
				if !isPacketPtr(pass.TypesInfo.TypeOf(st.Rhs[i])) {
					continue
				}
				switch lhs.(type) {
				case *ast.SelectorExpr:
					pass.Reportf(st.Pos(),
						"pooled *netsim.Packet stored in a struct field; packets are owned by one queue/event at a time and may be recycled under it (annotate `//tfcvet:allow poolsafe — <reason>` for deliberate ownership transfer)")
				case *ast.IndexExpr:
					pass.Reportf(st.Pos(),
						"pooled *netsim.Packet stored in a slice/map element; packets are owned by one queue/event at a time and may be recycled under it (annotate `//tfcvet:allow poolsafe — <reason>` for deliberate ownership transfer)")
				}
			}
		case *ast.CallExpr:
			if isBuiltinAppend(pass, st) {
				for _, arg := range st.Args[1:] {
					if isPacketPtr(pass.TypesInfo.TypeOf(arg)) {
						pass.Reportf(st.Pos(),
							"pooled *netsim.Packet appended to a slice; packets are owned by one queue/event at a time and may be recycled under it (annotate `//tfcvet:allow poolsafe — <reason>` for deliberate ownership transfer)")
						break
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				expr := elt
				if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
					expr = kv.Value
				}
				if isPacketPtr(pass.TypesInfo.TypeOf(expr)) {
					pass.Reportf(expr.Pos(),
						"pooled *netsim.Packet retained in a composite literal; packets are owned by one queue/event at a time and may be recycled under it (annotate `//tfcvet:allow poolsafe — <reason>` for deliberate ownership transfer)")
				}
			}
		}
	})
}

// copyReleased clones the released-variable state for a branch body.
func copyReleased(m map[*types.Var]token.Position) map[*types.Var]token.Position {
	c := make(map[*types.Var]token.Position, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}
