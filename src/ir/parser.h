/**
 * @file
 * Parser for the textual IR format produced by printer.h.
 *
 * Grammar, one construct per line (blank lines and lines whose first
 * non-blank character is '#' are skipped; leading and trailing
 * spaces, tabs and '\r' are ignored):
 *
 *     module <name> mem=<words>
 *     func @<name> [entry=bb<N>] [gprs=<N>] [preds=<N>] {
 *       block bb<N> [weight=<w>] [edges=[<w>,<w>,...]] {
 *         [<reg>{,<reg>} = ]<OPCODE>[.<KIND>] <operands> [? p<N>]
 *       }
 *     }
 *
 * Header fields are separated by single or repeated spaces. Op
 * operands are separated by spaces, tabs or commas; '[', ']', '+',
 * ':' and '?' are tokens of their own. Operands are registers
 * (r<N>, p<N>, b<N>), decimal 64-bit immediates, block targets
 * (bb<N>, fallthru), the memory form `[<reg> + <imm>]` of LD/ST and
 * the case list `[<imm>:<target>, ...]` of MWBR. Weights are decimal
 * doubles as printf("%.6g") spells them (inf and nan included; no
 * leading '+'). Blocks may appear in any order and ids may skip; a
 * branch may name a block defined later in the same function, and
 * targets are checked when the function ends. A missing closing '}'
 * at the end of the text is tolerated.
 *
 * The parser is a single pass over the text with no per-line or
 * per-token allocation. It reads untrusted bytes (treegiond requests,
 * repro files), so every input either parses or yields a
 * "line N: ..." error, in time linear in its length. Every number
 * must fill its whole field and fit its type (registers and block
 * ids 32 bits, immediates 64 bits; a weight written as a number must
 * not overflow or underflow a double); a bad one is an error naming
 * the field. The limits below
 * bound what a short text can make the parser or later passes
 * allocate.
 */

#ifndef TREEGION_IR_PARSER_H
#define TREEGION_IR_PARSER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "ir/module.h"

namespace treegion::ir {

/** Largest block id a function may define (`block bb<N>`). */
inline constexpr BlockId kMaxParsedBlockId = (1u << 16) - 1;

/** Largest gprs= / preds= count a function header may declare. */
inline constexpr uint32_t kMaxParsedRegs = 1u << 16;

/** Largest mem= a module header may declare, in words. */
inline constexpr size_t kMaxParsedMemWords = size_t{1} << 24;

/**
 * Parse a textual module.
 *
 * @param text module source
 * @param error set to a line-numbered message on failure
 * @return the parsed module, or nullptr on error
 */
std::unique_ptr<Module> parseModule(std::string_view text,
                                    std::string *error);

} // namespace treegion::ir

#endif // TREEGION_IR_PARSER_H
