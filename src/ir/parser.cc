#include "ir/parser.h"

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "support/string_utils.h"

namespace treegion::ir {

namespace {

using support::parseNumber;
using support::startsWith;
using support::strprintf;
using support::trim;

/** Parse a register name like r3 / p1 / b2. */
std::optional<Reg>
parseReg(std::string_view tok)
{
    if (tok.size() < 2)
        return std::nullopt;
    RegClass cls;
    if (tok[0] == 'r')
        cls = RegClass::Gpr;
    else if (tok[0] == 'p')
        cls = RegClass::Pred;
    else if (tok[0] == 'b' && tok[1] != 'b')
        cls = RegClass::Btr;
    else
        return std::nullopt;
    uint32_t idx;
    if (!parseNumber(tok.substr(1), idx))
        return std::nullopt;
    return Reg{cls, idx};
}

std::optional<int64_t>
parseImm(std::string_view tok)
{
    int64_t value;
    if (!parseNumber(tok, value))
        return std::nullopt;
    return value;
}

/** Parse "bb<N>" into @p out. */
bool
parseBlockId(std::string_view tok, BlockId &out)
{
    return startsWith(tok, "bb") && parseNumber(tok.substr(2), out) &&
           out != kNoBlock;
}

/** Parse "fallthru" or "bb<N>" into @p out. */
bool
parseTarget(std::string_view tok, BlockId &out)
{
    if (tok == "fallthru") {
        out = kNoBlock;
        return true;
    }
    return parseBlockId(tok, out);
}

/**
 * Call @p fn on each non-empty ','-separated piece of @p list, in
 * order. @return false as soon as @p fn does.
 */
template <typename Fn>
bool
forEachPiece(std::string_view list, Fn &&fn)
{
    while (!list.empty()) {
        const size_t comma = std::min(list.find(','), list.size());
        if (comma > 0 && !fn(list.substr(0, comma)))
            return false;
        list.remove_prefix(std::min(comma + 1, list.size()));
    }
    return true;
}

/** Split @p line on runs of spaces into @p out (views into @p line). */
void
splitFields(std::string_view line, std::vector<std::string_view> &out)
{
    out.clear();
    size_t start = 0;
    while (start < line.size()) {
        size_t end = line.find(' ', start);
        if (end == std::string_view::npos)
            end = line.size();
        if (end > start)
            out.push_back(line.substr(start, end - start));
        start = end + 1;
    }
}

/** Op-body character classes for tokenizeOp. */
enum CharClass : uint8_t { kWord, kSeparator, kPunct };

constexpr std::array<CharClass, 256> kCharClass = [] {
    std::array<CharClass, 256> classes{};
    for (const unsigned char c : std::string_view(" ,\t"))
        classes[c] = kSeparator;
    for (const unsigned char c : std::string_view("[]+?:"))
        classes[c] = kPunct;
    return classes;
}();

/**
 * Split an op body into @p out on spaces, tabs and commas, keeping
 * each of []+?: as a token of its own.
 */
void
tokenizeOp(std::string_view body, std::vector<std::string_view> &out)
{
    out.clear();
    size_t start = 0;
    for (size_t i = 0; i < body.size(); ++i) {
        const CharClass cls =
            kCharClass[static_cast<unsigned char>(body[i])];
        if (cls == kWord)
            continue;
        if (i > start)
            out.push_back(body.substr(start, i - start));
        if (cls == kPunct)
            out.push_back(body.substr(i, 1));
        start = i + 1;
    }
    if (body.size() > start)
        out.push_back(body.substr(start));
}

/** Single-pass, line-oriented recursive-descent parser. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::unique_ptr<Module>
    run()
    {
        std::string_view line;
        if (!nextLine(line) || !startsWith(line, "module "))
            return fail("expected 'module <name> mem=<words>'");
        splitFields(line, fields_);
        if (fields_.size() != 3 || !startsWith(fields_[2], "mem="))
            return fail("malformed module header");
        size_t mem_words;
        if (!parseNumber(fields_[2].substr(4), mem_words) ||
            mem_words > kMaxParsedMemWords)
            return fail(badValue("mem=", fields_[2]));
        auto mod = std::make_unique<Module>(std::string(fields_[1]));
        mod->setMemWords(mem_words);

        while (nextLine(line)) {
            if (!startsWith(line, "func @"))
                return fail("expected 'func @...'");
            if (!parseFunction(*mod, line))
                return nullptr;
        }
        return mod;
    }

  private:
    std::unique_ptr<Module>
    fail(std::string_view msg)
    {
        if (error_) {
            *error_ = strprintf("line %zu: %.*s", line_no_,
                                static_cast<int>(msg.size()),
                                msg.data());
        }
        return nullptr;
    }

    bool
    failb(std::string_view msg)
    {
        fail(msg);
        return false;
    }

    static std::string
    badValue(std::string_view key, std::string_view field)
    {
        std::string msg = "bad ";
        msg += key;
        msg += " value: ";
        msg += field;
        return msg;
    }

    /** @return the number of line breaks before the next @p stop. */
    size_t
    linesBefore(char stop) const
    {
        std::string_view rest = text_.substr(std::min(pos_, text_.size()));
        rest = rest.substr(0, std::min(rest.find(stop), rest.size()));
        size_t lines = 0;
        for (size_t at = rest.find('\n'); at != std::string_view::npos;
             at = rest.find('\n', at + 1))
            ++lines;
        return lines;
    }

    /** Fetch the next non-empty, non-comment line, trimmed. */
    bool
    nextLine(std::string_view &out)
    {
        while (pos_ <= text_.size()) {
            size_t end = text_.find('\n', pos_);
            if (end == std::string_view::npos)
                end = text_.size();
            const std::string_view line =
                trim(text_.substr(pos_, end - pos_));
            pos_ = end + 1;
            ++line_no_;
            if (!line.empty() && line[0] != '#') {
                out = line;
                return true;
            }
        }
        return false;
    }

    bool
    parseFunction(Module &mod, std::string_view header)
    {
        // func @name entry=bbN gprs=N preds=N {
        splitFields(header, fields_);
        if (fields_.size() < 3 || fields_.back() != "{")
            return failb("malformed func header");
        const std::string name(fields_[1].substr(1));
        if (name.empty())
            return failb("missing function name");
        if (mod.hasFunction(name))
            return failb("duplicate function @" + name);
        Function &fn = mod.createFunction(name);

        BlockId entry = kNoBlock;
        uint32_t gprs = 0;
        uint32_t preds = 0;
        for (size_t i = 2; i + 1 < fields_.size(); ++i) {
            const std::string_view f = fields_[i];
            if (startsWith(f, "entry=bb")) {
                if (!parseBlockId(f.substr(6), entry))
                    return failb(badValue("entry=", f));
            } else if (startsWith(f, "gprs=")) {
                if (!parseNumber(f.substr(5), gprs) ||
                    gprs > kMaxParsedRegs)
                    return failb(badValue("gprs=", f));
            } else if (startsWith(f, "preds=")) {
                if (!parseNumber(f.substr(6), preds) ||
                    preds > kMaxParsedRegs)
                    return failb(badValue("preds=", f));
            } else {
                return failb(std::string("unknown func attribute: ")
                                 .append(f));
            }
        }
        fn.reserveRegs(gprs, preds, 0);

        std::string_view line;
        while (nextLine(line)) {
            if (line == "}")
                break;
            if (!startsWith(line, "block bb"))
                return failb("expected 'block bb<N> ... {'");
            if (!parseBlock(fn, line))
                return false;
        }

        // Branch targets resolve once every block is known.
        BlockId undefined = kNoBlock;
        fn.forEachBlock([&](const BasicBlock &b) {
            if (!b.hasTerminator())
                return;
            for (const BlockId t : b.terminator().targets) {
                if (t != kNoBlock && !fn.hasBlock(t))
                    undefined = std::min(undefined, t);
            }
        });
        if (undefined != kNoBlock)
            return failb(strprintf("branch to undefined block bb%u",
                                   undefined));
        if (entry == kNoBlock || !fn.hasBlock(entry))
            return failb("function entry block missing");
        fn.setEntry(entry);
        return true;
    }

    bool
    parseBlock(Function &fn, std::string_view header)
    {
        splitFields(header, fields_);
        if (fields_.size() < 3 || fields_.back() != "{")
            return failb("malformed block header");
        BlockId id;
        if (!parseBlockId(fields_[1], id)) {
            return failb(std::string("bad block id: ")
                             .append(fields_[1]));
        }
        if (id > kMaxParsedBlockId) {
            return failb(strprintf("block id bb%u above the limit bb%u",
                                   id, kMaxParsedBlockId));
        }
        if (fn.hasBlock(id))
            return failb(strprintf("block bb%u defined twice", id));
        BasicBlock &b = fn.block(fn.createBlock(id));

        for (size_t i = 2; i + 1 < fields_.size(); ++i) {
            const std::string_view f = fields_[i];
            if (startsWith(f, "weight=")) {
                double w;
                if (!parseNumber(f.substr(7), w))
                    return failb(badValue("weight=", f));
                b.setWeight(w);
            } else if (startsWith(f, "edges=[")) {
                std::string_view inner = f.substr(7);
                if (!inner.empty() && inner.back() == ']')
                    inner.remove_suffix(1);
                // Repeated edges= fields concatenate.
                const auto add = [&](std::string_view piece) {
                    double w;
                    if (!parseNumber(piece, w))
                        return false;
                    b.edgeWeights().push_back(w);
                    return true;
                };
                const bool ok = forEachPiece(inner, add);
                if (!ok)
                    return failb(badValue("edges=", f));
            } else {
                return failb(std::string("unknown block attribute: ")
                                 .append(f));
            }
        }

        // Ops never contain '}', so the lines before the next one bound
        // the block's op count: size the op vector once.
        b.ops().reserve(linesBefore('}'));

        bool terminated = false;
        std::string_view line;
        while (nextLine(line)) {
            if (line == "}")
                break;
            // Built in place: the op takes its id in text order.
            Op &op = b.ops().emplace_back();
            op.id = fn.freshOpId();
            op.home = id;
            if (!parseOp(line, op))
                return false;
            if (op.isBranch()) {
                if (terminated)
                    return failb("multiple terminators in block");
                terminated = true;
            } else if (terminated) {
                return failb("op after terminator");
            }
        }
        return true;
    }

    bool
    parseDsts(std::string_view dsts, Op &op)
    {
        if (auto r = parseReg(dsts)) {
            // The common case: one register, nothing to split.
            op.dsts.assign(1, *r);
            return true;
        }
        op.dsts.reserve(std::count(dsts.begin(), dsts.end(), ',') + 1);
        std::string_view bad;
        const bool ok = forEachPiece(dsts, [&](std::string_view d) {
            auto r = parseReg(trim(d));
            if (!r) {
                bad = d;
                return false;
            }
            op.dsts.push_back(*r);
            return true;
        });
        return ok ||
               failb(std::string("bad destination register: ").append(bad));
    }

    bool
    parseOp(std::string_view line, Op &op)
    {
        // Destinations (before '=').
        std::string_view body = line;
        const size_t eq = line.find(" = ");
        if (eq != std::string_view::npos) {
            if (!parseDsts(line.substr(0, eq), op))
                return false;
            body = line.substr(eq + 3);
        }

        auto &toks = toks_;
        tokenizeOp(body, toks);
        if (toks.empty())
            return failb("empty op");

        // Mnemonic, possibly with a CMPP kind suffix.
        std::string_view mnemonic = toks[0];
        const size_t dot = mnemonic.find('.');
        if (dot != std::string_view::npos) {
            if (!parseCmpKind(mnemonic.substr(dot + 1), op.cmp)) {
                return failb(std::string("bad compare kind in ")
                                 .append(mnemonic));
            }
            mnemonic = mnemonic.substr(0, dot);
        }
        if (!parseOpcode(mnemonic, op.opcode))
            return failb(std::string("unknown opcode: ").append(mnemonic));

        // Trailing guard: "? pN".
        size_t end = toks.size();
        if (end >= 2 && toks[end - 2] == "?") {
            auto g = parseReg(toks[end - 1]);
            if (!g || g->cls != RegClass::Pred)
                return failb("bad guard predicate");
            op.guard = *g;
            end -= 2;
        }

        size_t i = 1;
        const auto at = [&]() {
            return i < end ? toks[i] : std::string_view();
        };
        const auto expect = [&](std::string_view tok) {
            if (i >= end || toks[i] != tok)
                return false;
            ++i;
            return true;
        };

        const Opcode opcode = op.opcode;
        if (opcode == Opcode::LD || opcode == Opcode::ST) {
            if (!expect("["))
                return failb("expected '[' in memory op");
            auto base = parseReg(at());
            if (!base)
                return failb("bad base register");
            ++i;
            if (!expect("+"))
                return failb("expected '+' in memory op");
            auto off = parseImm(at());
            if (!off)
                return failb("bad memory offset");
            ++i;
            if (!expect("]"))
                return failb("expected ']' in memory op");
            op.srcs.reserve(opcode == Opcode::ST ? 3 : 2);
            op.srcs.push_back(Operand::makeReg(*base));
            op.srcs.push_back(Operand::makeImm(*off));
            if (opcode == Opcode::ST) {
                if (i >= end)
                    return failb("missing store value");
                if (auto r = parseReg(toks[i]))
                    op.srcs.push_back(Operand::makeReg(*r));
                else if (auto imm = parseImm(toks[i]))
                    op.srcs.push_back(Operand::makeImm(*imm));
                else
                    return failb("bad store value");
                ++i;
            }
        } else if (opcode == Opcode::MWBR) {
            auto sel = parseReg(at());
            if (!sel)
                return failb("bad MWBR selector");
            ++i;
            op.srcs.push_back(Operand::makeReg(*sel));
            if (!expect("["))
                return failb("expected '[' in MWBR");
            const size_t cases = static_cast<size_t>(
                std::count(toks.begin() + i, toks.begin() + end, ":"));
            op.caseValues.reserve(cases);
            op.targets.reserve(cases);
            while (i < end && toks[i] != "]") {
                auto value = parseImm(toks[i]);
                if (!value)
                    return failb("bad MWBR case value");
                ++i;
                if (!expect(":"))
                    return failb("expected ':' in MWBR case");
                BlockId target;
                if (!parseTarget(at(), target))
                    return failb("bad MWBR case target");
                ++i;
                op.caseValues.push_back(*value);
                op.targets.push_back(target);
            }
            if (!expect("]"))
                return failb("expected ']' in MWBR");
        } else {
            // Generic: a mix of operands and branch targets. Sizing
            // both vectors up front keeps each op at one allocation
            // per non-empty vector.
            const size_t targets = static_cast<size_t>(std::count_if(
                toks.begin() + i, toks.begin() + end,
                [](std::string_view t) {
                    return startsWith(t, "bb") || t == "fallthru";
                }));
            op.targets.reserve(targets);
            op.srcs.reserve(end - i - targets);
            for (; i < end; ++i) {
                const std::string_view tok = toks[i];
                BlockId target;
                if (parseTarget(tok, target)) {
                    op.targets.push_back(target);
                } else if (auto r = parseReg(tok)) {
                    op.srcs.push_back(Operand::makeReg(*r));
                } else if (auto imm = parseImm(tok)) {
                    op.srcs.push_back(Operand::makeImm(*imm));
                } else {
                    return failb(std::string("bad operand: ").append(tok));
                }
            }
        }
        if (i != end)
            return failb("trailing tokens in op");
        return true;
    }

    std::string_view text_;
    std::string *error_;
    size_t pos_ = 0;
    size_t line_no_ = 0;
    std::vector<std::string_view> fields_;  ///< header fields, reused
    std::vector<std::string_view> toks_;    ///< op tokens, reused
};

} // namespace

std::unique_ptr<Module>
parseModule(std::string_view text, std::string *error)
{
    Parser parser(text, error);
    return parser.run();
}

} // namespace treegion::ir
