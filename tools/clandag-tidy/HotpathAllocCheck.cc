#include "HotpathAllocCheck.h"

#include <cctype>

#include "NameMatch.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/Attr.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/ExprCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "llvm/Support/FileSystem.h"
#include "llvm/Support/MemoryBuffer.h"
#include "llvm/Support/Path.h"
#include "llvm/Support/raw_ostream.h"

using namespace clang::ast_matchers;

namespace clang::tidy::clandag {

namespace {

constexpr llvm::StringLiteral kHotAnnotation("clandag::hot");
constexpr llvm::StringLiteral kColdAnnotation("clandag::cold");

// Does any redeclaration carry __attribute__((annotate(Ann)))? The macro
// lands on the header declaration; the definition inherits it through the
// redecl chain, but scanning every redecl is cheap and version-proof.
bool HasAnnotation(const FunctionDecl* FD, StringRef Ann) {
  if (FD == nullptr) {
    return false;
  }
  for (const FunctionDecl* RD : FD->redecls()) {
    for (const auto* A : RD->specific_attrs<AnnotateAttr>()) {
      if (A->getAnnotation() == Ann) {
        return true;
      }
    }
  }
  return false;
}

// The nearest *named* function enclosing `S`: lambdas are climbed through,
// because a lambda's body is written — and allocates — in its enclosing
// function's source, whatever thread eventually runs it.
const FunctionDecl* EnclosingNamedFunction(ASTContext& Ctx, const Stmt* S) {
  DynTypedNode Node = DynTypedNode::create(*S);
  while (true) {
    const auto Parents = Ctx.getParents(Node);
    if (Parents.empty()) {
      return nullptr;
    }
    Node = Parents[0];
    if (const auto* FD = Node.get<FunctionDecl>()) {
      const auto* MD = dyn_cast<CXXMethodDecl>(FD);
      if (MD != nullptr && MD->getParent()->isLambda()) {
        continue;  // Keep climbing: attribute the site to the named owner.
      }
      return FD->getCanonicalDecl();
    }
  }
}

// Classes whose methods ARE the sanctioned allocation routes.
bool IsPoolingClass(const CXXRecordDecl* RD) {
  if (RD == nullptr || RD->getIdentifier() == nullptr) {
    return false;
  }
  const StringRef Name = RD->getName();
  return Name == "BufferPool" || Name == "SlabArena" ||
         Name == "ControlBlockArena" || Name == "NodeArena" ||
         Name == "PooledBytes" ||
         Name == "NodeAllocator" || Name == "ArenaAllocator";
}

// Container types carrying the NodeArena's allocator (ArenaMap / ArenaSet /
// any std container instantiated over NodeAllocator): growth recycles pool
// slots, not heap.
bool IsArenaBackedType(QualType QT) {
  const std::string Printed = QT.getCanonicalType().getAsString();
  return Printed.find("NodeAllocator") != std::string::npos ||
         Printed.find("ArenaAllocator") != std::string::npos;
}

// Reserve-then-fill: a growth call on local `VD` is sanctioned when the same
// function calls `VD.reserve(...)` anywhere (the repo convention sizes the
// local once, then fills it without reallocation).
bool HasReserveOn(const Stmt* S, const VarDecl* VD) {
  if (S == nullptr) {
    return false;
  }
  if (const auto* MC = dyn_cast<CXXMemberCallExpr>(S)) {
    const CXXMethodDecl* MD = MC->getMethodDecl();
    if (MD != nullptr && MD->getIdentifier() != nullptr &&
        MD->getName() == "reserve") {
      const Expr* Obj = MC->getImplicitObjectArgument();
      if (Obj != nullptr) {
        if (const auto* DRE =
                dyn_cast<DeclRefExpr>(Obj->IgnoreParenImpCasts())) {
          if (DRE->getDecl() == VD) {
            return true;
          }
        }
      }
    }
  }
  for (const Stmt* Child : S->children()) {
    if (HasReserveOn(Child, VD)) {
      return true;
    }
  }
  return false;
}

std::string Sanitize(StringRef Path) {
  std::string Out;
  Out.reserve(Path.size());
  for (const char C : Path) {
    Out.push_back(std::isalnum(static_cast<unsigned char>(C)) != 0 ? C : '_');
  }
  return Out;
}

}  // namespace

HotpathAllocCheck::HotpathAllocCheck(StringRef Name, ClangTidyContext* Context)
    : ClangTidyCheck(Name, Context),
      SummaryDir(Options.get("SummaryDir", "")) {}

void HotpathAllocCheck::storeOptions(ClangTidyOptions::OptionMap& Opts) {
  Options.store(Opts, "SummaryDir", SummaryDir);
}

void HotpathAllocCheck::LoadSummaries() {
  if (SummariesLoaded || SummaryDir.empty()) {
    SummariesLoaded = true;
    return;
  }
  SummariesLoaded = true;
  std::error_code EC;
  for (llvm::sys::fs::directory_iterator It(SummaryDir, EC), End;
       !EC && It != End; It.increment(EC)) {
    if (!EndsWith(It->path(), ".sum")) {
      continue;
    }
    auto Buf = llvm::MemoryBuffer::getFile(It->path());
    if (!Buf) {
      continue;
    }
    llvm::SmallVector<StringRef, 64> Lines;
    (*Buf)->getBuffer().split(Lines, '\n');
    for (const StringRef Line : Lines) {
      StringRef Kind;
      StringRef Rest;
      std::tie(Kind, Rest) = Line.split('\t');
      if (Kind == "hot") {
        ExternalHot.insert(Rest);
      } else if (Kind == "cold") {
        ExternalCold.insert(Rest);
      }
    }
  }
}

void HotpathAllocCheck::registerMatchers(MatchFinder* Finder) {
  LoadSummaries();
  Finder->addMatcher(cxxNewExpr().bind("new"), this);
  Finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName(
                   "::malloc", "::calloc", "::realloc", "::strdup",
                   "::aligned_alloc", "::std::make_unique",
                   "::std::make_shared"))))
          .bind("alloc-call"),
      this);
  Finder->addMatcher(
      cxxMemberCallExpr(callee(cxxMethodDecl(hasAnyName(
                            "push_back", "emplace_back", "push_front",
                            "emplace_front", "insert", "emplace",
                            "try_emplace"))))
          .bind("grow"),
      this);
  // Every direct call: the intra-TU one-level call graph.
  Finder->addMatcher(callExpr(callee(functionDecl())).bind("edge"), this);
}

void HotpathAllocCheck::RecordSite(const MatchFinder::MatchResult& Result,
                                   const Stmt* Site, StringRef What) {
  const FunctionDecl* FD = EnclosingNamedFunction(*Result.Context, Site);
  if (FD == nullptr) {
    return;
  }
  const SourceLocation Loc =
      Result.SourceManager->getExpansionLoc(Site->getBeginLoc());
  Sites.push_back(AllocSite{Loc, What.str(), FD,
                            Result.SourceManager->isInMainFile(Loc)});
}

void HotpathAllocCheck::check(const MatchFinder::MatchResult& Result) {
  SM = Result.SourceManager;

  if (const auto* CE = Result.Nodes.getNodeAs<CallExpr>("edge")) {
    const FunctionDecl* Callee = CE->getDirectCallee();
    const FunctionDecl* Caller = EnclosingNamedFunction(*Result.Context, CE);
    if (Callee != nullptr && Caller != nullptr) {
      Edges[Caller].push_back(Callee->getCanonicalDecl());
    }
    return;
  }

  if (const auto* NE = Result.Nodes.getNodeAs<CXXNewExpr>("new")) {
    RecordSite(Result, NE, "operator new");
    return;
  }
  if (const auto* CE = Result.Nodes.getNodeAs<CallExpr>("alloc-call")) {
    const FunctionDecl* Callee = CE->getDirectCallee();
    RecordSite(Result, CE,
               Callee != nullptr ? Callee->getNameAsString() : "allocator call");
    return;
  }
  const auto* MC = Result.Nodes.getNodeAs<CXXMemberCallExpr>("grow");
  if (MC == nullptr) {
    return;
  }
  const CXXMethodDecl* MD = MC->getMethodDecl();
  if (MD == nullptr || IsPoolingClass(MD->getParent())) {
    return;
  }
  const Expr* Obj = MC->getImplicitObjectArgument();
  if (Obj == nullptr) {
    return;
  }
  // Only std containers grow the heap; protocol types named insert/emplace
  // (bitmaps, trackers) manage their own storage.
  const CXXRecordDecl* ObjClass = MD->getParent();
  if (ObjClass == nullptr || !ObjClass->isInStdNamespace()) {
    return;
  }
  if (IsArenaBackedType(Obj->getType())) {
    return;
  }
  if (const auto* DRE = dyn_cast<DeclRefExpr>(Obj->IgnoreParenImpCasts())) {
    if (const auto* VD = dyn_cast<VarDecl>(DRE->getDecl())) {
      if (VD->hasLocalStorage()) {
        const FunctionDecl* FD =
            EnclosingNamedFunction(*Result.Context, MC);
        if (FD != nullptr && FD->hasBody() &&
            HasReserveOn(FD->getBody(), VD)) {
          return;  // Reserve-then-fill idiom.
        }
      }
    }
  }
  RecordSite(Result, MC, (ObjClass->getNameAsString() + "::" +
                          MD->getNameAsString()));
}

void HotpathAllocCheck::onEndOfTranslationUnit() {
  const auto IsHot = [this](const FunctionDecl* FD) {
    return HasAnnotation(FD, kHotAnnotation) ||
           ExternalHot.count(FD->getQualifiedNameAsString()) != 0;
  };
  const auto IsCold = [this](const FunctionDecl* FD) {
    return HasAnnotation(FD, kColdAnnotation) ||
           ExternalCold.count(FD->getQualifiedNameAsString()) != 0;
  };

  // Reverse edges: for each function, the hot functions calling it directly.
  llvm::DenseMap<const FunctionDecl*, const FunctionDecl*> HotCaller;
  for (const auto& [Caller, Callees] : Edges) {
    if (!IsHot(Caller)) {
      continue;
    }
    for (const FunctionDecl* Callee : Callees) {
      HotCaller.try_emplace(Callee, Caller);
    }
  }

  for (const AllocSite& Site : Sites) {
    const FunctionDecl* FD = Site.Enclosing;
    if (IsHot(FD)) {
      diag(Site.Loc,
           "%1 in CLANDAG_HOT function %0; route it through BufferPool / "
           "NodeArena (ArenaMap, ArenaSet, allocate_shared) or move it to a "
           "CLANDAG_COLD callee")
          << FD << Site.What;
      continue;
    }
    if (IsCold(FD) || !Site.InMainFile) {
      continue;
    }
    // One level down the call graph: an unannotated callee of a hot function
    // defined in this file inherits the discipline.
    const auto It = HotCaller.find(FD);
    if (It != HotCaller.end()) {
      diag(Site.Loc,
           "%1 in %0, called from CLANDAG_HOT %2; annotate %0 CLANDAG_HOT "
           "and pool the allocation, or CLANDAG_COLD if it is off the "
           "commit path")
          << FD << Site.What << It->second;
    }
  }

  WriteSummary();
  Sites.clear();
  Edges.clear();
}

void HotpathAllocCheck::WriteSummary() {
  if (SummaryDir.empty() || SM == nullptr) {
    return;
  }
  StringRef Main;
  if (const auto Name = SM->getNonBuiltinFilenameForID(SM->getMainFileID())) {
    Main = *Name;
  }
  if (Main.empty()) {
    return;
  }
  (void)llvm::sys::fs::create_directories(SummaryDir);
  llvm::SmallString<256> Path(SummaryDir);
  llvm::sys::path::append(Path, Sanitize(Main) + ".sum");
  std::error_code EC;
  llvm::raw_fd_ostream Out(Path, EC, llvm::sys::fs::OF_Text);
  if (EC) {
    return;
  }
  Out << "# clandag-hotpath-alloc summary for " << Main << "\n";
  llvm::StringSet<> Emitted;
  const auto EmitFn = [&](const FunctionDecl* FD) {
    const std::string Name = FD->getQualifiedNameAsString();
    if (!Emitted.insert(Name).second) {
      return;
    }
    if (HasAnnotation(FD, kHotAnnotation)) {
      Out << "hot\t" << Name << "\n";
    } else if (HasAnnotation(FD, kColdAnnotation)) {
      Out << "cold\t" << Name << "\n";
    }
  };
  for (const auto& [Caller, Callees] : Edges) {
    EmitFn(Caller);
    if (!HasAnnotation(Caller, kHotAnnotation)) {
      continue;
    }
    for (const FunctionDecl* Callee : Callees) {
      EmitFn(Callee);
      Out << "edge\t" << Caller->getQualifiedNameAsString() << "\t"
          << Callee->getQualifiedNameAsString() << "\n";
      if (!HasAnnotation(Callee, kHotAnnotation) &&
          !HasAnnotation(Callee, kColdAnnotation)) {
        Out << "warm\t" << Callee->getQualifiedNameAsString() << "\n";
      }
    }
  }
  for (const AllocSite& Site : Sites) {
    Out << "alloc\t" << Site.Enclosing->getQualifiedNameAsString() << "\t"
        << Site.What << "\n";
  }
}

}  // namespace clang::tidy::clandag
