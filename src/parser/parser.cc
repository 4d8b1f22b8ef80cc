#include "parser/parser.h"

#include <limits>
#include <unordered_map>

#include "parser/lexer.h"

namespace mmv {
namespace parser {

namespace {

// Recursive-descent parser over a token stream. Variable names are scoped
// per clause: the scope map resets between clauses. Source names go to
// \p names when it is non-null.
class ParserImpl {
 public:
  ParserImpl(std::vector<Token> tokens, Program* program, VarNames* names)
      : tokens_(std::move(tokens)), program_(program), names_(names) {}

  Result<Clause> ParseOneClause() {
    scope_.clear();
    MMV_ASSIGN_OR_RETURN(Clause c, ParseClauseBody());
    MMV_RETURN_NOT_OK(Expect(TokKind::kEof, "after clause"));
    return c;
  }

  Result<ParsedAtom> ParseOneConstrainedAtom() {
    scope_.clear();
    MMV_ASSIGN_OR_RETURN(Clause c, ParseClauseBody());
    if (!c.body.empty()) {
      return Status::ParseError(
          "constrained atom must not contain body atoms");
    }
    MMV_RETURN_NOT_OK(Expect(TokKind::kEof, "after constrained atom"));
    ParsedAtom out;
    out.pred = std::move(c.head_pred);
    out.args = std::move(c.head_args);
    out.constraint = std::move(c.constraint);
    return out;
  }

  Status ParseWholeProgram() {
    while (Peek().kind != TokKind::kEof) {
      scope_.clear();
      MMV_ASSIGN_OR_RETURN(Clause c, ParseClauseBody());
      program_->AddClause(std::move(c));
    }
    return Status::OK();
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  Token Next() { return tokens_[pos_ < tokens_.size() ? pos_++ : pos_]; }
  bool Accept(TokKind k) {
    if (Peek().kind == k) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokKind k, const std::string& where) {
    if (Peek().kind != k) {
      return Status::ParseError(std::string("expected ") + TokKindName(k) +
                                " " + where + ", found " +
                                TokKindName(Peek().kind) + " at line " +
                                std::to_string(Peek().line));
    }
    ++pos_;
    return Status::OK();
  }
  // '&', ',' and '||' all separate elements.
  bool AcceptSep() {
    return Accept(TokKind::kAmp) || Accept(TokKind::kComma);
  }

  // clause := atom [ '<-' element (SEP element)* ] '.'
  Result<Clause> ParseClauseBody() {
    Clause c;
    MMV_ASSIGN_OR_RETURN(BodyAtom head, ParseAtom());
    c.head_pred = std::move(head.pred);
    c.head_args = std::move(head.args);
    if (Accept(TokKind::kArrow)) {
      do {
        MMV_RETURN_NOT_OK(ParseElement(&c));
      } while (AcceptSep());
    }
    MMV_RETURN_NOT_OK(Expect(TokKind::kDot, "at end of clause"));
    return c;
  }

  // element := not-block | in/notin | atom-or-comparison
  Status ParseElement(Clause* c) {
    const Token& t = Peek();
    if (t.kind == TokKind::kIdent && t.text == "not" &&
        Peek(1).kind == TokKind::kLParen) {
      pos_ += 2;
      MMV_ASSIGN_OR_RETURN(NotBlock block, ParseNotBlockBody());
      c->constraint.AddNot(std::move(block));
      return Status::OK();
    }
    if (t.kind == TokKind::kIdent && (t.text == "in" || t.text == "notin") &&
        Peek(1).kind == TokKind::kLParen) {
      MMV_ASSIGN_OR_RETURN(Primitive p, ParsePrimitive());
      c->constraint.Add(std::move(p));
      return Status::OK();
    }
    if (t.kind == TokKind::kIdent && t.text == "true" &&
        Peek(1).kind != TokKind::kLParen) {
      ++pos_;  // `true` as a no-op conjunct
      return Status::OK();
    }
    // Body atom `ident(...)` not followed by a comparison, or a comparison
    // primitive starting with a term.
    if (t.kind == TokKind::kIdent && Peek(1).kind == TokKind::kLParen) {
      MMV_ASSIGN_OR_RETURN(BodyAtom atom, ParseAtom());
      c->body.push_back(std::move(atom));
      return Status::OK();
    }
    MMV_ASSIGN_OR_RETURN(Primitive p, ParsePrimitive());
    c->constraint.Add(std::move(p));
    return Status::OK();
  }

  // Body of a not-block after 'not(' was consumed: a conjunction of
  // primitives and nested not(...) blocks, up to the closing ')'.
  Result<NotBlock> ParseNotBlockBody() {
    NotBlock block;
    do {
      const Token& t = Peek();
      if (t.kind == TokKind::kIdent && t.text == "not" &&
          Peek(1).kind == TokKind::kLParen) {
        pos_ += 2;
        MMV_ASSIGN_OR_RETURN(NotBlock inner, ParseNotBlockBody());
        block.inner.push_back(std::move(inner));
      } else {
        MMV_ASSIGN_OR_RETURN(Primitive p, ParsePrimitive());
        block.prims.push_back(std::move(p));
      }
    } while (AcceptSep());
    MMV_RETURN_NOT_OK(Expect(TokKind::kRParen, "closing not(...)"));
    return block;
  }

  // primitive := in/notin '(' term ',' dcall ')' | term CMP term
  Result<Primitive> ParsePrimitive() {
    const Token& t = Peek();
    if (t.kind == TokKind::kIdent && (t.text == "in" || t.text == "notin") &&
        Peek(1).kind == TokKind::kLParen) {
      bool positive = t.text == "in";
      pos_ += 2;
      MMV_ASSIGN_OR_RETURN(Term x, ParseTerm());
      MMV_RETURN_NOT_OK(Expect(TokKind::kComma, "in in(X, d:f(...))"));
      MMV_ASSIGN_OR_RETURN(DomainCall call, ParseDomainCall());
      MMV_RETURN_NOT_OK(Expect(TokKind::kRParen, "closing in(...)"));
      return positive ? Primitive::In(std::move(x), std::move(call))
                      : Primitive::NotInCall(std::move(x), std::move(call));
    }
    MMV_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    TokKind op = Peek().kind;
    switch (op) {
      case TokKind::kEq:
      case TokKind::kNeq:
      case TokKind::kLt:
      case TokKind::kLe:
      case TokKind::kGt:
      case TokKind::kGe:
        break;
      default:
        return Status::ParseError(
            "expected comparison operator after term at line " +
            std::to_string(Peek().line));
    }
    ++pos_;
    MMV_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    switch (op) {
      case TokKind::kEq:
        return Primitive::Eq(std::move(lhs), std::move(rhs));
      case TokKind::kNeq:
        return Primitive::Neq(std::move(lhs), std::move(rhs));
      case TokKind::kLt:
        return Primitive::Cmp(std::move(lhs), CmpOp::kLt, std::move(rhs));
      case TokKind::kLe:
        return Primitive::Cmp(std::move(lhs), CmpOp::kLe, std::move(rhs));
      case TokKind::kGt:
        return Primitive::Cmp(std::move(lhs), CmpOp::kGt, std::move(rhs));
      default:
        return Primitive::Cmp(std::move(lhs), CmpOp::kGe, std::move(rhs));
    }
  }

  // dcall := ident ':' ident '(' [terms] ')'
  Result<DomainCall> ParseDomainCall() {
    DomainCall call;
    if (Peek().kind != TokKind::kIdent) {
      return Status::ParseError("expected domain name at line " +
                                std::to_string(Peek().line));
    }
    call.domain = Next().text;
    MMV_RETURN_NOT_OK(Expect(TokKind::kColon, "in domain call"));
    if (Peek().kind != TokKind::kIdent) {
      return Status::ParseError("expected function name at line " +
                                std::to_string(Peek().line));
    }
    call.function = Next().text;
    MMV_RETURN_NOT_OK(Expect(TokKind::kLParen, "in domain call"));
    if (!Accept(TokKind::kRParen)) {
      do {
        MMV_ASSIGN_OR_RETURN(Term t, ParseTerm());
        call.args.push_back(std::move(t));
      } while (Accept(TokKind::kComma));
      MMV_RETURN_NOT_OK(Expect(TokKind::kRParen, "closing domain call"));
    }
    return call;
  }

  // atom := ident '(' [terms] ')'
  Result<BodyAtom> ParseAtom() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::ParseError("expected predicate name at line " +
                                std::to_string(Peek().line));
    }
    BodyAtom atom;
    atom.pred = Next().text;
    MMV_RETURN_NOT_OK(Expect(TokKind::kLParen, "after predicate name"));
    if (!Accept(TokKind::kRParen)) {
      do {
        MMV_ASSIGN_OR_RETURN(Term t, ParseTerm());
        atom.args.push_back(std::move(t));
      } while (Accept(TokKind::kComma));
      MMV_RETURN_NOT_OK(Expect(TokKind::kRParen, "closing atom"));
    }
    return atom;
  }

  Result<Term> ParseTerm() {
    Token t = Next();
    switch (t.kind) {
      case TokKind::kLBracket: {
        // Tuple literal [t1, ..., tn]: all elements must be constants.
        ValueList values;
        if (!Accept(TokKind::kRBracket)) {
          do {
            MMV_ASSIGN_OR_RETURN(Term el, ParseTerm());
            if (!el.is_const()) {
              return Status::ParseError(
                  "tuple literals may only contain constants (line " +
                  std::to_string(t.line) + ")");
            }
            values.push_back(el.constant());
          } while (Accept(TokKind::kComma));
          MMV_RETURN_NOT_OK(Expect(TokKind::kRBracket, "closing tuple"));
        }
        return Term::Const(Value(std::move(values)));
      }
      case TokKind::kVar: {
        if (t.text == "_") {
          // Anonymous variable: always fresh.
          VarId id = program_->factory()->Fresh();
          if (names_ != nullptr) names_->Set(id, "_");
          return Term::Var(id);
        }
        auto it = scope_.find(t.text);
        if (it != scope_.end()) return Term::Var(it->second);
        VarId id = program_->factory()->Fresh();
        scope_[t.text] = id;
        if (names_ != nullptr) names_->Set(id, t.text);
        return Term::Var(id);
      }
      case TokKind::kInt:
        return Term::Const(Value(t.int_val));
      case TokKind::kFloat:
        return Term::Const(Value(t.float_val));
      case TokKind::kString:
        return Term::Const(Value(t.text));
      case TokKind::kIdent:
        if (t.text == "true") return Term::Const(Value(true));
        if (t.text == "false") return Term::Const(Value(false));
        if (t.text == "null") return Term::Const(Value());
        // The words operator<<(Value) prints for non-finite doubles (the
        // lexer reads `-inf` as one float token).
        if (t.text == "inf") {
          return Term::Const(Value(std::numeric_limits<double>::infinity()));
        }
        if (t.text == "nan") {
          return Term::Const(Value(std::numeric_limits<double>::quiet_NaN()));
        }
        // Bare lowercase identifier: a string constant (Datalog style).
        return Term::Const(Value(t.text));
      default:
        return Status::ParseError(std::string("expected a term, found ") +
                                  TokKindName(t.kind) + " at line " +
                                  std::to_string(t.line));
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Program* program_;
  VarNames* names_;
  std::unordered_map<std::string, VarId> scope_;
};

}  // namespace

Result<Program> ParseProgram(std::string_view text) {
  MMV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Program program;
  ParserImpl impl(std::move(tokens), &program, program.names());
  MMV_RETURN_NOT_OK(impl.ParseWholeProgram());
  return program;
}

Result<Clause> ParseClause(std::string_view text, Program* program) {
  MMV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  ParserImpl impl(std::move(tokens), program, program->names());
  return impl.ParseOneClause();
}

Result<ParsedAtom> ParseConstrainedAtom(std::string_view text,
                                        Program* program) {
  return ParseConstrainedAtom(text, program, program->names());
}

Result<ParsedAtom> ParseConstrainedAtom(std::string_view text,
                                        Program* program, VarNames* names) {
  MMV_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  ParserImpl impl(std::move(tokens), program, names);
  return impl.ParseOneConstrainedAtom();
}

}  // namespace parser
}  // namespace mmv
