#include "isa/interpreter.h"

#include <cstring>
#include <string_view>

#include "common/logging.h"

namespace pulse::isa {
namespace {

/*
 * Scalar operand access, the interpreter's hottest path. verify()
 * admits only the widths 1/2/4/8 for scalar operands, so each access
 * dispatches on the width to a constant-size memcpy, which compiles to
 * one mov; a runtime-length memcpy compiles to rep movs plus a byte
 * tail and costs several times more. These helpers are forced inline
 * into run_iteration's dispatch loop. Every access still bounds-checks,
 * and any other width panics: Workspace::read/write are public, so an
 * unverified operand can reach them.
 */
[[gnu::always_inline]] inline std::uint64_t
read_bytes(const std::vector<std::uint8_t>& storage, std::uint64_t offset,
           std::uint16_t width)
{
    PULSE_ASSERT(offset + width <= storage.size(),
                 "operand read out of range (verifier bug)");
    const std::uint8_t* src = storage.data() + offset;
    std::uint64_t value = 0;
    switch (width) {
      case 1: std::memcpy(&value, src, 1); break;
      case 2: std::memcpy(&value, src, 2); break;
      case 4: std::memcpy(&value, src, 4); break;
      case 8: std::memcpy(&value, src, 8); break;
      default: panic("scalar access of width %u", unsigned{width});
    }
    return value;
}

[[gnu::always_inline]] inline void
write_bytes(std::vector<std::uint8_t>& storage, std::uint64_t offset,
            std::uint16_t width, std::uint64_t value)
{
    PULSE_ASSERT(offset + width <= storage.size(),
                 "operand write out of range (verifier bug)");
    std::uint8_t* dst = storage.data() + offset;
    switch (width) {
      case 1: std::memcpy(dst, &value, 1); break;
      case 2: std::memcpy(dst, &value, 2); break;
      case 4: std::memcpy(dst, &value, 4); break;
      case 8: std::memcpy(dst, &value, 8); break;
      default: panic("scalar access of width %u", unsigned{width});
    }
}

[[gnu::always_inline]] inline std::uint64_t
read_operand(const Workspace& workspace, const Operand& operand)
{
    switch (operand.kind) {
      case OperandKind::kImm:
        return operand.value;
      case OperandKind::kCurPtr:
        return workspace.cur_ptr;
      case OperandKind::kScratch:
        return read_bytes(workspace.scratch, operand.value, operand.width);
      case OperandKind::kData:
        return read_bytes(workspace.data, operand.value, operand.width);
      case OperandKind::kNone:
        break;
    }
    panic("read of kNone operand");
}

[[gnu::always_inline]] inline void
write_operand(Workspace& workspace, const Operand& operand,
              std::uint64_t value)
{
    switch (operand.kind) {
      case OperandKind::kCurPtr:
        workspace.cur_ptr = value;
        return;
      case OperandKind::kScratch:
        write_bytes(workspace.scratch, operand.value, operand.width,
                    value);
        return;
      case OperandKind::kData:
        write_bytes(workspace.data, operand.value, operand.width, value);
        return;
      default:
        panic("write to non-writable operand");
    }
}

bool
cond_holds(Cond cond, int flags)
{
    switch (cond) {
      case Cond::kAlways: return true;
      case Cond::kEq: return flags == 0;
      case Cond::kNeq: return flags != 0;
      case Cond::kLt: return flags < 0;
      case Cond::kGt: return flags > 0;
      case Cond::kLe: return flags <= 0;
      case Cond::kGe: return flags >= 0;
    }
    return false;
}

InterpreterMutation g_mutation = InterpreterMutation::kNone;

}  // namespace

void
set_interpreter_mutation(InterpreterMutation mutation)
{
    g_mutation = mutation;
}

InterpreterMutation
interpreter_mutation()
{
    return g_mutation;
}

bool
mutation_from_name(const char* name, InterpreterMutation* out)
{
    const std::string_view sv(name);
    if (sv == "none") {
        *out = InterpreterMutation::kNone;
    } else if (sv == "add-off-by-one") {
        *out = InterpreterMutation::kAddOffByOne;
    } else if (sv == "compare-inverted") {
        *out = InterpreterMutation::kCompareInverted;
    } else if (sv == "store-drop-byte") {
        *out = InterpreterMutation::kStoreDropByte;
    } else if (sv == "drop-one-branch") {
        *out = InterpreterMutation::kSpawnDropBranch;
    } else if (sv == "double-join") {
        *out = InterpreterMutation::kSpawnDoubleJoin;
    } else {
        return false;
    }
    return true;
}

void
Workspace::configure(const Program& program)
{
    scratch.assign(program.scratch_bytes(), 0);
    data.assign(kMaxLoadBytes, 0);
    cur_ptr = kNullAddr;
    flags = 0;
    spawn_depth = 0;
}

std::uint64_t
Workspace::read(const Operand& operand) const
{
    return read_operand(*this, operand);
}

void
Workspace::write(const Operand& operand, std::uint64_t value)
{
    write_operand(*this, operand, value);
}

IterationResult
run_iteration(const Program& program, Workspace& workspace,
              const CasFn& cas)
{
    IterationResult result;
    bool dropped_spawn = false;
    const auto& code = program.code();
    // Skip the LOAD at instruction 0: the memory pipeline performs it.
    std::uint32_t pc = (!code.empty() &&
                        code.front().op == Opcode::kLoad) ? 1 : 0;

    while (pc < code.size()) {
        const Instruction& insn = code[pc];
        result.instructions_executed++;
        switch (insn.op) {
          case Opcode::kLoad:
            // verify() guarantees LOAD only at index 0.
            result.end = IterEnd::kFault;
            result.fault = ExecFault::kIllegalInstruction;
            return result;
          case Opcode::kStore: {
            auto length = static_cast<std::uint32_t>(insn.src2.value);
            if (g_mutation == InterpreterMutation::kStoreDropByte &&
                length > 0) {
                length--;
            }
            result.stores.push_back(PendingStore{
                .mem_offset = insn.dst.value,
                .data_offset = static_cast<std::uint32_t>(insn.src1.value),
                .length = length,
            });
            break;
          }
          case Opcode::kAdd:
            write_operand(
                workspace, insn.dst,
                read_operand(workspace, insn.src1) +
                    read_operand(workspace, insn.src2) +
                    (g_mutation == InterpreterMutation::kAddOffByOne
                         ? 1
                         : 0));
            break;
          case Opcode::kSub:
            write_operand(workspace, insn.dst,
                          read_operand(workspace, insn.src1) -
                              read_operand(workspace, insn.src2));
            break;
          case Opcode::kMul:
            write_operand(workspace, insn.dst,
                          read_operand(workspace, insn.src1) *
                              read_operand(workspace, insn.src2));
            break;
          case Opcode::kDiv: {
            const std::uint64_t divisor =
                read_operand(workspace, insn.src2);
            if (divisor == 0) {
                result.end = IterEnd::kFault;
                result.fault = ExecFault::kDivideByZero;
                return result;
            }
            write_operand(workspace, insn.dst,
                          read_operand(workspace, insn.src1) / divisor);
            break;
          }
          case Opcode::kAnd:
            write_operand(workspace, insn.dst,
                          read_operand(workspace, insn.src1) &
                              read_operand(workspace, insn.src2));
            break;
          case Opcode::kOr:
            write_operand(workspace, insn.dst,
                          read_operand(workspace, insn.src1) |
                              read_operand(workspace, insn.src2));
            break;
          case Opcode::kNot:
            write_operand(workspace, insn.dst,
                          ~read_operand(workspace, insn.src1));
            break;
          case Opcode::kMove:
            if (insn.dst.width > 8) {
                // Register-vector transfer (verify() guarantees both
                // operands are vectors of equal width).
                auto& dst_vec =
                    insn.dst.kind == OperandKind::kScratch
                        ? workspace.scratch
                        : workspace.data;
                const auto& src_vec =
                    insn.src1.kind == OperandKind::kScratch
                        ? workspace.scratch
                        : workspace.data;
                PULSE_ASSERT(insn.dst.value + insn.dst.width <=
                                     dst_vec.size() &&
                                 insn.src1.value + insn.src1.width <=
                                     src_vec.size(),
                             "vector move out of range (verifier bug)");
                std::memmove(dst_vec.data() + insn.dst.value,
                             src_vec.data() + insn.src1.value,
                             insn.dst.width);
            } else {
                write_operand(workspace, insn.dst,
                              read_operand(workspace, insn.src1));
            }
            break;
          case Opcode::kCompare: {
            const auto a = static_cast<std::int64_t>(
                read_operand(workspace, insn.src1));
            const auto b = static_cast<std::int64_t>(
                read_operand(workspace, insn.src2));
            workspace.flags = (a < b) ? -1 : (a > b) ? 1 : 0;
            if (g_mutation == InterpreterMutation::kCompareInverted) {
                workspace.flags = -workspace.flags;
            }
            break;
          }
          case Opcode::kJump:
            if (cond_holds(insn.cond, workspace.flags)) {
                pc = insn.target;
                continue;
            }
            break;
          case Opcode::kReturn:
            result.end = IterEnd::kReturn;
            return result;
          case Opcode::kNextIter:
            result.end = IterEnd::kNextIter;
            return result;
          case Opcode::kSpawn: {
            if (workspace.spawn_depth >= program.max_spawn_depth()) {
                result.end = IterEnd::kFault;
                result.fault = ExecFault::kSpawnDepth;
                return result;
            }
            const VirtAddr child = read_operand(workspace, insn.src1);
            if (child == kNullAddr) {
                // Null-pointer spawn is a no-op: the conditional-fork
                // idiom (e.g. padded child-pointer slots).
                break;
            }
            if (g_mutation == InterpreterMutation::kSpawnDropBranch &&
                !dropped_spawn) {
                // Mutation: the iteration's first branch vanishes.
                dropped_spawn = true;
                break;
            }
            SpawnRecord record;
            record.start_ptr = child;
            record.arg_offset =
                static_cast<std::uint16_t>(insn.dst.value);
            record.arg_length = insn.dst.width;
            PULSE_ASSERT(record.arg_offset + record.arg_length <=
                             workspace.scratch.size(),
                         "spawn args out of range (verifier bug)");
            std::memcpy(record.args,
                        workspace.scratch.data() + record.arg_offset,
                        record.arg_length);
            result.spawns.push_back(record);
            if (g_mutation == InterpreterMutation::kSpawnDoubleJoin) {
                // Mutation: the branch joins twice (the duplicate is a
                // distinct branch index at the engine).
                result.spawns.push_back(record);
            }
            break;
          }
          case Opcode::kReduce:
            // The declaration is consumed by static analysis; at
            // runtime it costs one instruction slot and does nothing.
            break;
          case Opcode::kJoin:
            result.end = IterEnd::kJoin;
            return result;
          case Opcode::kCas: {
            if (!cas) {
                // This execution site has no atomic path.
                result.end = IterEnd::kFault;
                result.fault = ExecFault::kIllegalInstruction;
                return result;
            }
            const bool swapped = cas(insn.dst.value,
                                     read_operand(workspace, insn.src1),
                                     read_operand(workspace, insn.src2));
            workspace.flags = swapped ? 0 : 1;  // EQ on success
            break;
          }
        }
        pc++;
    }
    // verify() guarantees the last instruction is terminal, so this is
    // unreachable for verified programs.
    panic("iteration fell off the end of a verified program");
}

}  // namespace pulse::isa
