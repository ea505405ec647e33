#include "pdb/batch_program.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace jigsaw::pdb {

namespace {

constexpr std::uint32_t kNoError = 0xffffffffu;

/// Sorted-unique union of two parameter-index sets (both tiny).
std::vector<std::size_t> UnionParams(const std::vector<std::size_t>& a,
                                     const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// True when evaluating the visited tree can neither raise nor draw on
/// any lane: no model call, no division and no parameter load (which
/// raises when unbound). Such a tree may run on lanes the interpreter
/// would never have reached without any observable difference.
class PurityCheck final : public ExprVisitor {
 public:
  static bool Of(const Expr& expr) {
    PurityCheck check;
    expr.Accept(check);
    return check.pure_;
  }

  void VisitLiteral(const Value&) override {}
  void VisitColumnRef(std::size_t, const std::string&) override {}
  void VisitAliasRef(std::size_t, const std::string&) override {}
  void VisitParamRef(std::size_t, const std::string&) override {
    pure_ = false;
  }
  void VisitBinary(BinaryOp op, const Expr& left,
                   const Expr& right) override {
    if (op == BinaryOp::kDiv) pure_ = false;
    if (pure_) left.Accept(*this);
    if (pure_) right.Accept(*this);
  }
  void VisitNot(const Expr& operand) override { operand.Accept(*this); }
  void VisitCase(const std::vector<std::pair<ExprPtr, ExprPtr>>& branches,
                 const Expr* else_expr) override {
    for (const auto& [cond, value] : branches) {
      if (pure_) cond->Accept(*this);
      if (pure_) value->Accept(*this);
    }
    if (pure_ && else_expr != nullptr) else_expr->Accept(*this);
  }
  void VisitModelCall(const BlackBoxPtr&, const std::vector<ExprPtr>&,
                      std::uint64_t) override {
    pure_ = false;
  }

 private:
  bool pure_ = true;
};

}  // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Walks Expr trees via ExprVisitor and emits BatchOps. Register ids are
/// SSA-ish (every node writes a fresh register except refs, which resolve
/// to the producing register directly), so alias/column references are
/// free and the interpreter's share-the-sibling-draws semantics falls out
/// of register reuse.
class BatchCompiler final : public ExprVisitor {
 public:
  Result<BatchProgramPtr> Compile(std::span<const ExprPtr> inner_exprs,
                                  std::span<const ExprPtr> outer_exprs,
                                  std::span<const std::string> outer_names) {
    JIGSAW_CHECK(outer_exprs.size() == outer_names.size());
    auto program = std::make_shared<BatchProgram>();
    program_ = program.get();

    for (const auto& e : inner_exprs) {
      JIGSAW_ASSIGN_OR_RETURN(std::uint32_t reg, Gen(*e, kBatchNoMask));
      inner_regs_.push_back(reg);
    }
    for (std::size_t j = 0; j < outer_exprs.size(); ++j) {
      JIGSAW_ASSIGN_OR_RETURN(std::uint32_t reg,
                              Gen(*outer_exprs[j], kBatchNoMask));
      alias_regs_.push_back(reg);
      if (regs_[reg].nullable) {
        BatchOp check;
        check.code = BatchOpCode::kCheckNumeric;
        check.a = reg;
        check.b = static_cast<std::uint32_t>(j);
        check.error = "column '" + outer_names[j] + "' is not numeric";
        program_->ops_.push_back(std::move(check));
      }
      BatchProgram::ColumnInfo info;
      info.reg = reg;
      info.end_op = program_->ops_.size();
      info.name = outer_names[j];
      program_->columns_.push_back(std::move(info));
    }
    program_->num_regs_ = static_cast<std::uint32_t>(regs_.size());
    program_->num_masks_ = next_mask_;
    return BatchProgramPtr(std::move(program));
  }

 private:
  /// Compile-time facts about one register.
  struct RegMeta {
    std::vector<std::size_t> params;  ///< parameter indices it reads
    bool has_model = false;           ///< a model call feeds it
    bool nullable = true;             ///< some lane may hold NULL
  };

  // -- visitor dispatch -----------------------------------------------------
  // Each Visit method services the innermost pending Gen call: it reads
  // mask_ and must set result_ or status_.

  Result<std::uint32_t> Gen(const Expr& expr, std::uint32_t mask) {
    const std::uint32_t saved_mask = mask_;
    mask_ = mask;
    expr.Accept(*this);
    mask_ = saved_mask;
    if (!status_.ok()) return status_;
    return result_;
  }

  void VisitLiteral(const Value& value) override {
    switch (value.type()) {
      case ValueType::kNull:
        result_ = EmitLoad(BatchOpCode::kLoadNull, 0.0);
        return;
      case ValueType::kDouble:
      case ValueType::kBool:
        result_ = EmitLoad(BatchOpCode::kLoadConst, value.AsDouble());
        return;
      case ValueType::kInt:
        // INT+INT runs 64-bit integer arithmetic in the interpreter; a
        // double register cannot reproduce it past 2^53.
        status_ = Status::Unimplemented(
            "INT literal " + value.ToString() +
            " has 64-bit integer arithmetic semantics");
        return;
      case ValueType::kString:
        status_ = Status::Unimplemented("string literal '" +
                                        value.ToString() +
                                        "' has no numeric batch form");
        return;
    }
    status_ = Status::Internal("unhandled literal type");
  }

  void VisitColumnRef(std::size_t index, const std::string& name) override {
    if (index >= inner_regs_.size()) {
      status_ = Status::Unimplemented("column '" + name +
                                      "' resolves outside the row program");
      return;
    }
    result_ = inner_regs_[index];
  }

  void VisitAliasRef(std::size_t index, const std::string& name) override {
    if (index >= alias_regs_.size()) {
      status_ = Status::Unimplemented("alias '" + name +
                                      "' is not an earlier result column");
      return;
    }
    result_ = alias_regs_[index];
  }

  void VisitParamRef(std::size_t index, const std::string& name) override {
    BatchOp op;
    op.code = BatchOpCode::kLoadParam;
    op.dst = NewReg({index}, /*has_model=*/false, /*nullable=*/false);
    op.a = static_cast<std::uint32_t>(index);
    op.mask = mask_;
    op.error = "parameter '@" + name + "' not bound at execution";
    result_ = Emit(std::move(op));
  }

  void VisitBinary(BinaryOp op, const Expr& left,
                   const Expr& right) override {
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      GenLogic(op == BinaryOp::kAnd, left, right);
      return;
    }
    auto l = Gen(left, mask_);
    if (!l.ok()) {
      status_ = l.status();
      return;
    }
    auto r = Gen(right, mask_);
    if (!r.ok()) {
      status_ = r.status();
      return;
    }
    BatchOpCode code;
    switch (op) {
      case BinaryOp::kAdd:
        code = BatchOpCode::kAdd;
        break;
      case BinaryOp::kSub:
        code = BatchOpCode::kSub;
        break;
      case BinaryOp::kMul:
        code = BatchOpCode::kMul;
        break;
      case BinaryOp::kDiv:
        code = BatchOpCode::kDiv;
        break;
      case BinaryOp::kLt:
        code = BatchOpCode::kCmpLt;
        break;
      case BinaryOp::kLe:
        code = BatchOpCode::kCmpLe;
        break;
      case BinaryOp::kGt:
        code = BatchOpCode::kCmpGt;
        break;
      case BinaryOp::kGe:
        code = BatchOpCode::kCmpGe;
        break;
      case BinaryOp::kEq:
        code = BatchOpCode::kCmpEq;
        break;
      case BinaryOp::kNe:
        code = BatchOpCode::kCmpNe;
        break;
      default:
        status_ = Status::Internal("unhandled binary op");
        return;
    }
    BatchOp bin;
    bin.code = code;
    bin.dst = NewDerivedReg({l.value(), r.value()});
    bin.a = l.value();
    bin.b = r.value();
    bin.mask = mask_;
    if (code == BatchOpCode::kDiv) bin.error = "division by zero";
    result_ = Emit(std::move(bin));
  }

  void VisitNot(const Expr& operand) override {
    auto a = Gen(operand, mask_);
    if (!a.ok()) {
      status_ = a.status();
      return;
    }
    BatchOp op;
    op.code = BatchOpCode::kNot;
    op.dst = NewDerivedReg({a.value()});
    op.a = a.value();
    op.mask = mask_;
    result_ = Emit(std::move(op));
  }

  void VisitCase(const std::vector<std::pair<ExprPtr, ExprPtr>>& branches,
                 const Expr* else_expr) override {
    bool pure = else_expr == nullptr || PurityCheck::Of(*else_expr);
    for (const auto& [cond, value] : branches) {
      pure = pure && PurityCheck::Of(*cond) && PurityCheck::Of(*value);
    }
    if (pure) {
      GenSelectCase(branches, else_expr);
    } else {
      GenMaskedCase(branches, else_expr);
    }
  }

  void VisitModelCall(const BlackBoxPtr& model,
                      const std::vector<ExprPtr>& args,
                      std::uint64_t call_site) override {
    // Interpreter order: ModelCallExpr checks the seed vector before any
    // argument evaluates, and coerces (numeric-checks) each argument
    // before the next one runs — the emitted check ops keep that order
    // so a lane hitting several failures reports the interpreter's.
    // Once an unmasked seed check ran, every lane that could fail a
    // later one already failed, so later ones are not emitted.
    if (!seeds_checked_) {
      BatchOp seeds_check;
      seeds_check.code = BatchOpCode::kCheckSeeds;
      seeds_check.mask = mask_;
      seeds_check.error =
          "stochastic expression evaluated without a seed vector";
      program_->ops_.push_back(std::move(seeds_check));
      seeds_checked_ = mask_ == kBatchNoMask;
    }
    BatchOp op;
    op.code = BatchOpCode::kModelCall;
    op.model = model;
    op.call_site = call_site;
    op.mask = mask_;
    op.uniform_args = true;
    for (const auto& arg : args) {
      auto a = Gen(*arg, mask_);
      if (!a.ok()) {
        status_ = a.status();
        return;
      }
      const RegMeta& meta = regs_[a.value()];
      if (meta.nullable) {
        BatchOp arg_check;
        arg_check.code = BatchOpCode::kCheckArgNumeric;
        arg_check.a = a.value();
        arg_check.mask = mask_;
        arg_check.error = "non-numeric argument to " + model->name();
        program_->ops_.push_back(std::move(arg_check));
      }
      op.args.push_back(a.value());
      op.arg_params = UnionParams(op.arg_params, meta.params);
      op.uniform_args = op.uniform_args && !meta.has_model;
    }
    op.dst = NewReg(op.arg_params, /*has_model=*/true, /*nullable=*/false);
    result_ = Emit(std::move(op));
  }

  // -- CASE -----------------------------------------------------------------

  /// Pure CASE: every condition and value runs unmasked (none can raise
  /// or draw), then one kSelect per WHEN folds them from the last WHEN
  /// back to the first, so the first true condition wins. A NULL
  /// condition is not taken; no ELSE falls back to NULL.
  void GenSelectCase(const std::vector<std::pair<ExprPtr, ExprPtr>>& branches,
                     const Expr* else_expr) {
    mask_ = kBatchNoMask;  // restored by the Gen that visited this CASE
    std::vector<std::pair<std::uint32_t, std::uint32_t>> arms;
    for (const auto& [cond, value] : branches) {
      auto c = Gen(*cond, mask_);
      if (!c.ok()) {
        status_ = c.status();
        return;
      }
      auto v = Gen(*value, mask_);
      if (!v.ok()) {
        status_ = v.status();
        return;
      }
      arms.emplace_back(c.value(), v.value());
    }
    std::uint32_t acc = 0;  // the fallback: ELSE, or NULL without one
    if (else_expr != nullptr) {
      auto e = Gen(*else_expr, mask_);
      if (!e.ok()) {
        status_ = e.status();
        return;
      }
      acc = e.value();
    } else {
      acc = EmitLoad(BatchOpCode::kLoadNull, 0.0);
    }
    for (auto it = arms.rbegin(); it != arms.rend(); ++it) {
      BatchOp select;
      select.code = BatchOpCode::kSelect;
      select.dst = NewDerivedReg({it->first, it->second, acc});
      regs_[select.dst].nullable =
          regs_[it->second].nullable || regs_[acc].nullable;
      select.a = it->first;
      select.b = it->second;
      select.c = acc;
      acc = Emit(std::move(select));
    }
    result_ = acc;
  }

  /// Any other CASE: each WHEN narrows a working mask of lanes still
  /// looking for a match, and each value evaluates only on its taken
  /// lanes, so untaken branches neither raise nor draw.
  void GenMaskedCase(const std::vector<std::pair<ExprPtr, ExprPtr>>& branches,
                     const Expr* else_expr) {
    const std::uint32_t outer_mask = mask_;
    // Default NULL so lanes where no branch matches reproduce the
    // interpreter's CASE-without-ELSE result.
    const std::uint32_t dst = EmitLoad(BatchOpCode::kLoadNull, 0.0);
    // Working mask of lanes still looking for a matching WHEN.
    const std::uint32_t remaining = NewMask();
    EmitMaskOp(BatchOpCode::kMaskCopy, remaining, outer_mask, 0);
    // Every lane of the outer mask takes exactly one value (the ELSE
    // included), so dst is NULL-free when every value is.
    bool nullable = else_expr == nullptr;
    std::vector<std::uint32_t> sources;
    for (const auto& [cond, value] : branches) {
      auto c = Gen(*cond, remaining);
      if (!c.ok()) {
        status_ = c.status();
        return;
      }
      const std::uint32_t taken = NewMask();
      EmitMaskOp(BatchOpCode::kMaskWhereTrue, taken, remaining, c.value());
      EmitMaskOp(BatchOpCode::kMaskAndNot, remaining, remaining, taken);
      auto v = Gen(*value, taken);
      if (!v.ok()) {
        status_ = v.status();
        return;
      }
      EmitCopy(dst, v.value(), taken);
      sources.push_back(c.value());
      sources.push_back(v.value());
      nullable = nullable || regs_[v.value()].nullable;
    }
    if (else_expr != nullptr) {
      auto e = Gen(*else_expr, remaining);
      if (!e.ok()) {
        status_ = e.status();
        return;
      }
      EmitCopy(dst, e.value(), remaining);
      sources.push_back(e.value());
      nullable = nullable || regs_[e.value()].nullable;
    }
    SetDerivedMeta(dst, sources);
    regs_[dst].nullable = nullable;
    result_ = dst;
  }

  // -- AND / OR -------------------------------------------------------------
  //
  //   dst seeded with the short-circuit value (NULL propagated from the
  //   left), then the right operand evaluates only on the lanes where the
  //   interpreter would have reached it, and overwrites dst there.

  void GenLogic(bool is_and, const Expr& left, const Expr& right) {
    auto l = Gen(left, mask_);
    if (!l.ok()) {
      status_ = l.status();
      return;
    }
    BatchOp seed;
    seed.code = BatchOpCode::kLogicSeed;
    seed.dst = NewReg({}, false, true);
    seed.a = l.value();
    seed.mask = mask_;
    seed.imm = is_and ? 0.0 : 1.0;  // AND: false wins; OR: true wins
    const std::uint32_t dst = Emit(std::move(seed));

    const std::uint32_t continue_mask = NewMask();
    EmitMaskOp(is_and ? BatchOpCode::kMaskWhereTrue
                      : BatchOpCode::kMaskWhereFalse,
               continue_mask, mask_, l.value());
    auto r = Gen(right, continue_mask);
    if (!r.ok()) {
      status_ = r.status();
      return;
    }
    BatchOp cast;
    cast.code = BatchOpCode::kBoolCast;
    cast.dst = dst;
    cast.a = r.value();
    cast.mask = continue_mask;
    program_->ops_.push_back(std::move(cast));
    SetDerivedMeta(dst, {l.value(), r.value()});
    result_ = dst;
  }

  // -- emission helpers -----------------------------------------------------

  std::uint32_t NewReg(std::vector<std::size_t> params, bool has_model,
                       bool nullable) {
    regs_.push_back(RegMeta{std::move(params), has_model, nullable});
    return static_cast<std::uint32_t>(regs_.size() - 1);
  }

  /// A fresh register computed from `sources`: it reads their parameters
  /// and models, and is NULL wherever one of them is.
  std::uint32_t NewDerivedReg(const std::vector<std::uint32_t>& sources) {
    const std::uint32_t reg = NewReg({}, false, false);
    SetDerivedMeta(reg, sources);
    return reg;
  }

  void SetDerivedMeta(std::uint32_t reg,
                      const std::vector<std::uint32_t>& sources) {
    RegMeta meta{{}, false, false};
    for (std::uint32_t src : sources) {
      meta.params = UnionParams(meta.params, regs_[src].params);
      meta.has_model = meta.has_model || regs_[src].has_model;
      meta.nullable = meta.nullable || regs_[src].nullable;
    }
    regs_[reg] = std::move(meta);
  }

  std::uint32_t NewMask() { return next_mask_++; }

  /// Appends `op` and returns its destination register.
  std::uint32_t Emit(BatchOp op) {
    const std::uint32_t dst = op.dst;
    program_->ops_.push_back(std::move(op));
    return dst;
  }

  /// kLoadConst (imm) or kLoadNull into a fresh register.
  std::uint32_t EmitLoad(BatchOpCode code, double imm) {
    BatchOp op;
    op.code = code;
    op.dst = NewReg({}, false, code == BatchOpCode::kLoadNull);
    op.imm = imm;
    op.mask = mask_;
    return Emit(std::move(op));
  }

  void EmitCopy(std::uint32_t dst, std::uint32_t src, std::uint32_t mask) {
    BatchOp op;
    op.code = BatchOpCode::kCopy;
    op.dst = dst;
    op.a = src;
    op.mask = mask;
    program_->ops_.push_back(std::move(op));
  }

  void EmitMaskOp(BatchOpCode code, std::uint32_t dst, std::uint32_t a,
                  std::uint32_t b) {
    BatchOp op;
    op.code = code;
    op.dst = dst;
    op.a = a;
    op.b = b;
    program_->ops_.push_back(std::move(op));
  }

  BatchProgram* program_ = nullptr;
  std::uint32_t next_mask_ = 0;
  std::uint32_t mask_ = kBatchNoMask;
  std::uint32_t result_ = 0;
  Status status_ = Status::OK();
  /// An unmasked kCheckSeeds has been emitted.
  bool seeds_checked_ = false;
  std::vector<std::uint32_t> inner_regs_;
  std::vector<std::uint32_t> alias_regs_;
  std::vector<RegMeta> regs_;  ///< indexed by register id
};

Result<BatchProgramPtr> CompileBatchProgram(
    std::span<const ExprPtr> inner_exprs, std::span<const ExprPtr> outer_exprs,
    std::span<const std::string> outer_names) {
  BatchCompiler compiler;
  return compiler.Compile(inner_exprs, outer_exprs, outer_names);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/// Grows `buf` to at least `size` elements; never shrinks, so a buffer
/// alternating between short and long spans is initialized once.
template <typename T>
void GrowTo(std::vector<T>& buf, std::size_t size) {
  if (buf.size() < size) buf.resize(size);
}

/// dst <- a OP b on every lane (NULL when either operand is).
template <typename OpFn>
void ArithKernel(std::size_t n, const double* x, const std::uint8_t* xn,
                 const double* y, const std::uint8_t* yn, double* d,
                 std::uint8_t* dn, OpFn fn) {
  for (std::size_t l = 0; l < n; ++l) {
    dn[l] = xn[l] | yn[l];
    d[l] = fn(x[l], y[l]);
  }
}

/// dst <- bool(a CMP b) on every lane. Each predicate is Value::Compare's
/// ordering (x < y ? -1 : x > y ? 1 : 0) exactly, so NaN compares equal.
template <typename CmpFn>
void CmpKernel(std::size_t n, const double* x, const std::uint8_t* xn,
               const double* y, const std::uint8_t* yn, double* d,
               std::uint8_t* dn, CmpFn fn) {
  for (std::size_t l = 0; l < n; ++l) {
    dn[l] = xn[l] | yn[l];
    d[l] = fn(x[l], y[l]) ? 1.0 : 0.0;
  }
}

}  // namespace

Status BatchProgram::Exec(const Context& ctx, std::size_t n,
                          std::size_t end_op, std::size_t check_column,
                          BatchScratch& s) const {
  if (n == 0) return Status::OK();
  GrowTo(s.values, static_cast<std::size_t>(num_regs_) * n);
  GrowTo(s.nulls, static_cast<std::size_t>(num_regs_) * n);
  GrowTo(s.masks, static_cast<std::size_t>(num_masks_) * n);
  s.any_error = false;

  auto val = [&](std::uint32_t reg) { return s.values.data() + reg * n; };
  auto nul = [&](std::uint32_t reg) { return s.nulls.data() + reg * n; };
  auto msk = [&](std::uint32_t m) { return s.masks.data() + m * n; };

  for (std::size_t i = 0; i < end_op; ++i) {
    const BatchOp& op = ops_[i];

    // Runs `body(lane)` for every lane a fallible op may touch: masked-out
    // and already-errored lanes are skipped, matching the interpreter (it
    // never reaches this op for those samples).
    auto for_active = [&](auto&& body) {
      const std::uint8_t* m =
          op.mask == kBatchNoMask ? nullptr : msk(op.mask);
      if (!s.any_error) {
        // No lane has errored before this op: err is not consulted (a
        // lane raising here is never revisited by the same op).
        for (std::size_t l = 0; l < n; ++l) {
          if (m == nullptr || m[l] != 0) body(l);
        }
        return;
      }
      for (std::size_t l = 0; l < n; ++l) {
        if (s.err[l] == kNoError && (m == nullptr || m[l] != 0)) body(l);
      }
    };
    auto raise = [&](std::size_t lane) {
      if (!s.any_error) {
        s.err.assign(n, kNoError);
        s.any_error = true;
      }
      if (s.err[lane] == kNoError) s.err[lane] = static_cast<std::uint32_t>(i);
    };
    // Merge ops overwrite only the lanes of their mask.
    auto blend = [&](const double* x, const std::uint8_t* xn, double* d,
                     std::uint8_t* dn, auto&& value) {
      JIGSAW_DCHECK(op.mask != kBatchNoMask);
      const std::uint8_t* m = msk(op.mask);
      for (std::size_t l = 0; l < n; ++l) {
        dn[l] = m[l] != 0 ? xn[l] : dn[l];
        d[l] = m[l] != 0 ? value(x[l]) : d[l];
      }
    };

    // Fresh-register ops that cannot raise or draw (loads, arithmetic,
    // comparisons, NOT, the logic seed, selects) compute every lane: the
    // lanes outside their mask or already errored are never read.
    switch (op.code) {
      case BatchOpCode::kLoadConst:
        std::fill(val(op.dst), val(op.dst) + n, op.imm);
        std::fill(nul(op.dst), nul(op.dst) + n, std::uint8_t{0});
        break;
      case BatchOpCode::kLoadNull:
        std::fill(val(op.dst), val(op.dst) + n, 0.0);
        std::fill(nul(op.dst), nul(op.dst) + n, std::uint8_t{1});
        break;
      case BatchOpCode::kLoadParam: {
        double* d = val(op.dst);
        const LaneParam* lane_override = nullptr;
        for (const LaneParam& lp : ctx.lane_params) {
          if (lp.param_index == op.a) lane_override = &lp;
        }
        if (lane_override != nullptr) {
          JIGSAW_DCHECK(lane_override->values.size() >= n);
          std::copy(lane_override->values.data(),
                    lane_override->values.data() + n, d);
        } else if (op.a >= ctx.params.size()) {
          for_active([&](std::size_t l) { raise(l); });
          break;
        } else {
          std::fill(d, d + n, ctx.params[op.a]);
        }
        std::fill(nul(op.dst), nul(op.dst) + n, std::uint8_t{0});
        break;
      }
      case BatchOpCode::kAdd:
        ArithKernel(n, val(op.a), nul(op.a), val(op.b), nul(op.b),
                    val(op.dst), nul(op.dst),
                    [](double x, double y) { return x + y; });
        break;
      case BatchOpCode::kSub:
        ArithKernel(n, val(op.a), nul(op.a), val(op.b), nul(op.b),
                    val(op.dst), nul(op.dst),
                    [](double x, double y) { return x - y; });
        break;
      case BatchOpCode::kMul:
        ArithKernel(n, val(op.a), nul(op.a), val(op.b), nul(op.b),
                    val(op.dst), nul(op.dst),
                    [](double x, double y) { return x * y; });
        break;
      case BatchOpCode::kDiv: {
        const double* x = val(op.a);
        const double* y = val(op.b);
        const std::uint8_t* xn = nul(op.a);
        const std::uint8_t* yn = nul(op.b);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for_active([&](std::size_t l) {
          if (xn[l] | yn[l]) {
            dn[l] = 1;
            d[l] = 0.0;
          } else if (y[l] == 0.0) {
            raise(l);
          } else {
            dn[l] = 0;
            d[l] = x[l] / y[l];
          }
        });
        break;
      }
      case BatchOpCode::kCmpLt:
        CmpKernel(n, val(op.a), nul(op.a), val(op.b), nul(op.b), val(op.dst),
                  nul(op.dst), [](double x, double y) { return x < y; });
        break;
      case BatchOpCode::kCmpLe:
        CmpKernel(n, val(op.a), nul(op.a), val(op.b), nul(op.b), val(op.dst),
                  nul(op.dst), [](double x, double y) { return !(x > y); });
        break;
      case BatchOpCode::kCmpGt:
        CmpKernel(n, val(op.a), nul(op.a), val(op.b), nul(op.b), val(op.dst),
                  nul(op.dst), [](double x, double y) { return x > y; });
        break;
      case BatchOpCode::kCmpGe:
        CmpKernel(n, val(op.a), nul(op.a), val(op.b), nul(op.b), val(op.dst),
                  nul(op.dst), [](double x, double y) { return !(x < y); });
        break;
      case BatchOpCode::kCmpEq:
        CmpKernel(n, val(op.a), nul(op.a), val(op.b), nul(op.b), val(op.dst),
                  nul(op.dst),
                  [](double x, double y) { return !(x < y) && !(x > y); });
        break;
      case BatchOpCode::kCmpNe:
        CmpKernel(n, val(op.a), nul(op.a), val(op.b), nul(op.b), val(op.dst),
                  nul(op.dst),
                  [](double x, double y) { return x < y || x > y; });
        break;
      case BatchOpCode::kNot: {
        const double* x = val(op.a);
        const std::uint8_t* xn = nul(op.a);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for (std::size_t l = 0; l < n; ++l) {
          dn[l] = xn[l];
          d[l] = x[l] == 0.0 ? 1.0 : 0.0;
        }
        break;
      }
      case BatchOpCode::kBoolCast:
        blend(val(op.a), nul(op.a), val(op.dst), nul(op.dst),
              [](double x) { return x != 0.0 ? 1.0 : 0.0; });
        break;
      case BatchOpCode::kCopy:
        blend(val(op.a), nul(op.a), val(op.dst), nul(op.dst),
              [](double x) { return x; });
        break;
      case BatchOpCode::kSelect: {
        const double* c = val(op.a);
        const std::uint8_t* cn = nul(op.a);
        const double* x = val(op.b);
        const std::uint8_t* xn = nul(op.b);
        const double* y = val(op.c);
        const std::uint8_t* yn = nul(op.c);
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        for (std::size_t l = 0; l < n; ++l) {
          const bool take = cn[l] == 0 && c[l] != 0.0;
          dn[l] = take ? xn[l] : yn[l];
          d[l] = take ? x[l] : y[l];
        }
        break;
      }
      case BatchOpCode::kLogicSeed:
        std::copy(nul(op.a), nul(op.a) + n, nul(op.dst));
        std::fill(val(op.dst), val(op.dst) + n, op.imm);
        break;
      case BatchOpCode::kMaskCopy: {
        std::uint8_t* d = msk(op.dst);
        if (op.a == kBatchNoMask) {
          std::fill(d, d + n, std::uint8_t{1});
        } else {
          const std::uint8_t* src = msk(op.a);
          std::copy(src, src + n, d);
        }
        break;
      }
      case BatchOpCode::kMaskWhereTrue:
      case BatchOpCode::kMaskWhereFalse: {
        std::uint8_t* d = msk(op.dst);
        const std::uint8_t* parent =
            op.a == kBatchNoMask ? nullptr : msk(op.a);
        const double* x = val(op.b);
        const std::uint8_t* xn = nul(op.b);
        const bool want = op.code == BatchOpCode::kMaskWhereTrue;
        for (std::size_t l = 0; l < n; ++l) {
          const bool live = parent == nullptr || parent[l] != 0;
          d[l] = (live && xn[l] == 0 && (x[l] != 0.0) == want) ? 1 : 0;
        }
        break;
      }
      case BatchOpCode::kMaskAndNot: {
        std::uint8_t* d = msk(op.dst);
        const std::uint8_t* a = op.a == kBatchNoMask ? nullptr : msk(op.a);
        const std::uint8_t* b = msk(op.b);
        for (std::size_t l = 0; l < n; ++l) {
          d[l] = ((a == nullptr || a[l] != 0) && b[l] == 0) ? 1 : 0;
        }
        break;
      }
      case BatchOpCode::kCheckSeeds: {
        // Lanes that reach a stochastic call without seeds fail exactly
        // like the interpreter; masked-out lanes stay clean.
        if (ctx.seeds == nullptr) {
          for_active([&](std::size_t l) { raise(l); });
        }
        break;
      }
      case BatchOpCode::kCheckNumeric:
        // RunColumn checks only its own column, like EvalColumn.
        if (check_column != kAllColumns && op.b != check_column) break;
        [[fallthrough]];
      case BatchOpCode::kCheckArgNumeric: {
        const std::uint8_t* xn = nul(op.a);
        for_active([&](std::size_t l) {
          if (xn[l] != 0) raise(l);
        });
        break;
      }
      case BatchOpCode::kModelCall: {
        // The preceding kCheckSeeds errored every lane that could reach
        // this op without seeds, so no active lane dereferences them;
        // the guard only covers the degenerate everything-masked case.
        if (ctx.seeds == nullptr) break;
        double* d = val(op.dst);
        std::uint8_t* dn = nul(op.dst);
        const std::uint64_t site =
            ctx.stream_salt == 0
                ? op.call_site
                : HashCombine(ctx.stream_salt, op.call_site);
        bool lane_param_conflict = false;
        for (const LaneParam& lp : ctx.lane_params) {
          lane_param_conflict =
              lane_param_conflict ||
              std::binary_search(op.arg_params.begin(), op.arg_params.end(),
                                 lp.param_index);
        }
        s.argv.resize(op.args.size());
        if (op.mask == kBatchNoMask && !s.any_error && op.uniform_args &&
            !lane_param_conflict) {
          // Arguments are identical across lanes: one EvalBatch over the
          // whole seed span (bit-identical to per-lane InvokeSeeded by
          // the EvalBatch contract), or its replay from the run's memo
          // when the span is the fingerprint.
          for (std::size_t k = 0; k < op.args.size(); ++k) {
            s.argv[k] = val(op.args[k])[0];
          }
          if (ctx.memo != nullptr &&
              ctx.memo->Covers(ctx.seeds, ctx.sample_begin, n)) {
            ctx.memo->Eval(op.model, s.argv, site, std::span<double>(d, n));
          } else {
            op.model->EvalBatch(s.argv,
                                ctx.seeds->span(ctx.sample_begin, n),
                                site, std::span<double>(d, n));
          }
          std::fill(dn, dn + n, std::uint8_t{0});
        } else {
          for_active([&](std::size_t l) {
            for (std::size_t k = 0; k < op.args.size(); ++k) {
              s.argv[k] = val(op.args[k])[l];
            }
            RandomStream rng =
                ctx.seeds->StreamFor(ctx.sample_begin + l, site);
            d[l] = op.model->Eval(s.argv, rng);
            dn[l] = 0;
          });
        }
        break;
      }
    }
  }

  if (s.any_error) {
    for (std::size_t l = 0; l < n; ++l) {
      if (s.err[l] != kNoError) {
        return Status::ExecutionError(ops_[s.err[l]].error);
      }
    }
  }
  return Status::OK();
}

Status BatchProgram::RunAll(const Context& ctx, std::size_t n,
                            std::span<double* const> out,
                            BatchScratch& scratch) const {
  JIGSAW_CHECK(out.size() == columns_.size());
  JIGSAW_RETURN_IF_ERROR(Exec(ctx, n, ops_.size(), kAllColumns, scratch));
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    const double* src = scratch.values.data() + columns_[j].reg * n;
    std::copy(src, src + n, out[j]);
  }
  return Status::OK();
}

Status BatchProgram::RunColumn(std::size_t j, const Context& ctx,
                               std::size_t n, std::span<double> out,
                               BatchScratch& scratch) const {
  JIGSAW_CHECK(j < columns_.size());
  JIGSAW_CHECK(out.size() >= n);
  JIGSAW_RETURN_IF_ERROR(
      Exec(ctx, n, columns_[j].end_op, /*check_column=*/j, scratch));
  const double* src = scratch.values.data() + columns_[j].reg * n;
  std::copy(src, src + n, out.data());
  return Status::OK();
}

}  // namespace jigsaw::pdb
