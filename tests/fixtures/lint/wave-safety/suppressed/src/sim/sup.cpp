// The same hazards as the fail fixture, each excused with a justified
// allow — the fixture pins that wave-safety findings honour the normal
// suppression machinery.
struct Rng {
  unsigned next() { return 1u; }
};

class SupProtocol : public Protocol {
 public:
  bool can_quiesce() {
    // glap-lint: allow(wave-safety): polls_ only counts votes for a debug report
    polls_ = polls_ + 1;
    (void)rng_.next();  // glap-lint: allow(wave-safety): the draw feeds no decision
    return true;
  }

 private:
  int polls_ = 0;
  Rng rng_;
};
