// Fixture: registration reached only through a constructor (via a
// helper) — legal under the fixpoint: makeChannels' only caller is the
// constructor. Display path src/obs/fix/ctor_ok.cc. Also exercises
// constructor detection with an initializer list.

namespace fix {

Widget::Widget(Registry &registry) : label_("widget"), loads_(0)
{
    makeChannels(registry);
}

void
Widget::makeChannels(Registry &registry)
{
    registry.histogram("widget.load");
}

} // namespace fix
